"""Domain types and box/polygon geometry shared by every stage.

Boxes are corner-format with real-valued, closed-interval coordinates.
Zero-area (degenerate) boxes are legal inputs everywhere; IoU involving an
empty union is 0 by convention so a flaky detector cannot halt the pipeline.
All types are immutable values and all functions are pure.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, slots=True)
class BoundingBox:
    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        if self.x1 > self.x2 or self.y1 > self.y2:
            raise ValueError(f"invalid box corners: {(self.x1, self.y1, self.x2, self.y2)}")

    @property
    def width(self) -> float:
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        return self.y2 - self.y1

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        return (0.5 * (self.x1 + self.x2), 0.5 * (self.y1 + self.y2))

    @property
    def anchor(self) -> tuple[float, float]:
        """Bottom-center (foot point), the ground-plane anchor used by
        statistics and rules."""
        return (0.5 * (self.x1 + self.x2), self.y2)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x1, self.y1, self.x2, self.y2)

    def contains(self, point: tuple[float, float]) -> bool:
        """Closed-interval test: points on the box's edges are inside."""
        x, y = point
        return self.x1 <= x <= self.x2 and self.y1 <= y <= self.y2


@dataclass(frozen=True, slots=True)
class FrameMeta:
    source_id: str
    frame_id: int
    timestamp_ms: int
    width: int
    height: int

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ValueError("frame dimensions must be positive")
        if self.frame_id < 0:
            raise ValueError("frame_id must be non-negative")


@dataclass(frozen=True, slots=True)
class Detection:
    frame: FrameMeta
    bbox: BoundingBox
    class_label: str
    confidence: float

    def __post_init__(self):
        if not self.class_label:
            raise ValueError("class_label must be non-empty")
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence {self.confidence} outside [0, 1]")


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union of two boxes; 0 when the union has zero area."""
    ix = min(a.x2, b.x2) - max(a.x1, b.x1)
    iy = min(a.y2, b.y2) - max(a.y1, b.y1)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    union = a.area + b.area - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IoU for two (m, 4) / (n, 4) arrays of [x1, y1, x2, y2] rows."""
    a = np.asarray(a, dtype=float).reshape(-1, 4)
    b = np.asarray(b, dtype=float).reshape(-1, 4)
    ix = np.minimum(a[:, None, 2], b[None, :, 2]) - np.maximum(a[:, None, 0], b[None, :, 0])
    iy = np.minimum(a[:, None, 3], b[None, :, 3]) - np.maximum(a[:, None, 1], b[None, :, 1])
    inter = np.maximum(ix, 0.0) * np.maximum(iy, 0.0)
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    union = area_a[:, None] + area_b[None, :] - inter
    out = np.zeros_like(inter)
    np.divide(inter, union, out=out, where=union > 0.0)
    return out


EDGE_TOL = 1e-9  # on-edge tolerance of point_in_polygon


def polygon_edges(polygon: Sequence[tuple[float, float]]) -> tuple:
    """The per-edge constants :func:`point_in_polygon` tests a point against.

    One (x1, y1, y2, dx, dy, near, span) row per edge from (x1, y1) to
    (x2, y2), closing edge last: d = (dx, dy) is the edge vector, near =
    EDGE_TOL * max(|dx|, |dy|, 1) bounds |d x (p - a)| for a point p on
    the edge and span = |d|^2 + EDGE_TOL bounds d . (p - a).  A zone that
    is tested every frame computes these once.
    """
    n = len(polygon)
    rows = []
    for i in range(n):
        x1, y1 = polygon[i]
        x2, y2 = polygon[(i + 1) % n]
        dx, dy = x2 - x1, y2 - y1
        rows.append((x1, y1, y2, dx, dy,
                     EDGE_TOL * max(abs(dx), abs(dy), 1.0),
                     dx ** 2 + dy ** 2 + EDGE_TOL))
    return tuple(rows)


def point_in_polygon(point: tuple[float, float],
                     polygon: Sequence[tuple[float, float]],
                     edges: tuple | None = None) -> bool:
    """Ray-casting parity test; points exactly on an edge count as inside.

    "On an edge" carries a tolerance: with d = (dx, dy) the edge from
    a = (x1, y1), the point p is on it when |d x (p - a)| <= EDGE_TOL *
    max(|dx|, |dy|, 1) and -EDGE_TOL <= d . (p - a) <= |d|^2 + EDGE_TOL,
    so :func:`polygon_reach` bounds every point this returns True for.
    *edges* is ``polygon_edges(polygon)`` when the caller keeps it.
    """
    x, y = point
    inside = False
    for x1, y1, y2, dx, dy, near, span in (
            polygon_edges(polygon) if edges is None else edges):
        cross = dx * (y - y1) - dy * (x - x1)
        if -near <= cross <= near and -EDGE_TOL <= (x - x1) * dx + (y - y1) * dy <= span:
            return True
        if (y1 > y) != (y2 > y):
            # x-coordinate where the edge crosses the horizontal ray
            if x < x1 + (y - y1) / dy * dx:
                inside = not inside
    return inside


def polygon_reach(polygon: Sequence[tuple[float, float]]) -> BoundingBox:
    """Box outside which ``point_in_polygon(point, polygon)`` is False.

    A point the parity count finds inside lies in the polygon's bounding
    box.  A point the on-edge test accepts may lie off its edge: with
    d = (dx, dy) the edge, L = |d| and scale = max(|dx|, |dy|, 1), the
    accepted set is the edge stretched by EDGE_TOL / L along d and widened
    by EDGE_TOL * scale / L across it, so in exact arithmetic it stays
    within EDGE_TOL * (1 + scale) / L of the edge's box on either axis.
    That reach is at most 2 * EDGE_TOL for edges of 1 px or longer and
    grows as an edge shortens below 1 px.  The box is widened by twice the
    largest reach plus 2**-36 times the largest coordinate magnitude, which
    covers the rounding in the cross, dot and crossing-point arithmetic (a
    few units in the last place of those magnitudes).  A zero-length edge
    accepts every point, so it makes the box unbounded.
    """
    xs = [x for x, _ in polygon]
    ys = [y for _, y in polygon]
    if not xs or not all(map(math.isfinite, xs + ys)):
        raise ValueError("polygon needs finite vertices")
    n = len(polygon)
    reach = 0.0
    for i in range(n):
        x1, y1 = polygon[i]
        x2, y2 = polygon[(i + 1) % n]
        dx, dy = x2 - x1, y2 - y1
        length = math.hypot(dx, dy)
        scale = max(abs(dx), abs(dy), 1.0)
        reach = max(reach, EDGE_TOL * (1.0 + scale) / length if length > 0.0 else math.inf)
    magnitude = max(max(map(abs, xs)), max(map(abs, ys)), 1.0)
    margin = 2.0 * reach + magnitude * 2.0 ** -36
    return BoundingBox(min(xs) - margin, min(ys) - margin,
                       max(xs) + margin, max(ys) + margin)


def polygon_is_simple(polygon: list[tuple[float, float]]) -> bool:
    """True when no two non-adjacent edges intersect (and no zero-length edge)."""
    n = len(polygon)
    if n < 3:
        return False
    edges = [(polygon[i], polygon[(i + 1) % n]) for i in range(n)]
    for (p1, q1) in edges:
        if p1 == q1:
            return False
    for i in range(n):
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue  # shared-vertex neighbours
            if _segments_intersect(*edges[i], *edges[j]):
                return False
    return True


def _orient(a, b, c) -> float:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _segments_intersect(p1, q1, p2, q2) -> bool:
    d1 = _orient(p2, q2, p1)
    d2 = _orient(p2, q2, q1)
    d3 = _orient(p1, q1, p2)
    d4 = _orient(p1, q1, q2)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)):
        return True

    def on(a, b, c):
        return (
            _orient(a, b, c) == 0
            and min(a[0], b[0]) <= c[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= c[1] <= max(a[1], b[1])
        )

    return on(p2, q2, p1) or on(p2, q2, q1) or on(p1, q1, p2) or on(p1, q1, q2)


def segment_side(p: tuple[float, float], q: tuple[float, float], x: tuple[float, float]) -> float:
    """Signed side of point x relative to the directed line p -> q.

    Positive means x lies to the left when facing along p -> q.
    """
    return (q[0] - p[0]) * (x[1] - p[1]) - (q[1] - p[1]) * (x[0] - p[0])
