"""Independent reference implementations used to check the library.

Everything here is deliberately written the slow, obvious way — exhaustive
enumeration, sub-cell rasterization, central finite differences, winding
numbers — and shares no code with the package under test.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np


# ---------------------------------------------------------------------------
# geometry


def iou_rasterized(a, b, scale: int = 4) -> float:
    """IoU by counting sub-cells on a 1/scale grid.

    Exact whenever all eight coordinates are multiples of 1/scale.
    """
    def cells(box):
        x1, y1, x2, y2 = (int(round(v * scale)) for v in box)
        return {(i, j) for i in range(x1, x2) for j in range(y1, y2)}

    ca, cb = cells(a), cells(b)
    union = len(ca | cb)
    return len(ca & cb) / union if union else 0.0


def point_in_polygon_winding(point, poly) -> bool:
    """Winding-number point test; points on an edge count as inside."""
    px, py = point
    n = len(poly)

    for i in range(n):
        ax, ay = poly[i]
        bx, by = poly[(i + 1) % n]
        cross = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
        if cross == 0 and min(ax, bx) <= px <= max(ax, bx) \
                and min(ay, by) <= py <= max(ay, by):
            return True

    winding = 0
    for i in range(n):
        ax, ay = poly[i]
        bx, by = poly[(i + 1) % n]
        if ay <= py:
            if by > py and (bx - ax) * (py - ay) - (by - ay) * (px - ax) > 0:
                winding += 1
        elif by <= py and (bx - ax) * (py - ay) - (by - ay) * (px - ax) < 0:
            winding -= 1
    return winding != 0


# ---------------------------------------------------------------------------
# assignment


def assignment_cost(cost, pairs) -> float:
    """Total cost of a matching, summed in row order (deterministic)."""
    a = np.asarray(cost, dtype=float)
    total = 0.0
    for i, j in sorted(pairs):
        total += float(a[i, j])
    return total


def assignment_bruteforce(cost, tie_eps: float = 1e-9):
    """(minimum total, lexicographically smallest optimal pair list).

    Enumerates every injective assignment of the smaller axis; totals are
    fsum'd so mathematically equal alternatives compare equal.
    """
    cost = [list(row) for row in cost]
    m, n = len(cost), len(cost[0]) if cost else 0
    transposed = m > n
    if transposed:
        cost = [list(col) for col in zip(*cost)]
        m, n = n, m

    best_total = math.inf
    candidates = []
    for perm in itertools.permutations(range(n), m):
        total = math.fsum(cost[i][perm[i]] for i in range(m))
        if total < best_total - tie_eps:
            best_total = total
            candidates = [perm]
        elif total <= best_total + tie_eps:
            if total < best_total:
                best_total = total
            candidates.append(perm)

    best_pairs = None
    for perm in candidates:
        total = math.fsum(cost[i][perm[i]] for i in range(m))
        if total > best_total + tie_eps:
            continue
        pairs = sorted((perm[i], i) for i in range(m)) if transposed \
            else sorted((i, perm[i]) for i in range(m))
        if best_pairs is None or pairs < best_pairs:
            best_pairs = pairs
    return best_total, best_pairs


def solve_square_numpy_scalars(a: np.ndarray):
    """Shortest-augmenting-path solve on numpy float64 scalars: (u, v, row_to_col).

    A frozen copy of the solver as it stood before its loop moved to plain
    Python floats; the package must reproduce its potentials bit for bit.
    """
    n = a.shape[0]
    INF = math.inf
    u = np.zeros(n + 1)
    v = np.zeros(n + 1)
    p = [0] * (n + 1)  # col -> row (1-based); col 0 is the virtual start
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = [INF] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = INF
            j1 = 0
            row = a[i0 - 1]
            ui0 = u[i0]
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = row[j - 1] - ui0 - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0 != 0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    row_to_col = [0] * n
    for j in range(1, n + 1):
        if p[j] != 0:
            row_to_col[p[j] - 1] = j - 1
    return np.asarray(u[1:]), np.asarray(v[1:]), row_to_col


def solve_square_reference(a: np.ndarray):
    """Shortest-augmenting-path solve on plain Python floats: (u, v, row_to_col).

    A frozen copy of the package's solver as it stood while each step took
    `minv[j] -= delta` in a loop of its own; the package must reproduce its
    potentials and matching bit for bit.
    """
    n = a.shape[0]
    INF = math.inf
    rows = a.tolist()
    u = [0.0] * (n + 1)
    v = [0.0] * (n + 1)
    p = [0] * (n + 1)  # col -> row (1-based); col 0 is the virtual start
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = [INF] * (n + 1)
        used = [0]
        free = list(range(1, n + 1))
        while True:
            i0 = p[j0]
            delta = INF
            j1 = 0
            row = rows[i0 - 1]
            ui0 = u[i0]
            for j in free:
                cur = row[j - 1] - ui0 - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in used:
                u[p[j]] += delta
                v[j] -= delta
            for j in free:
                minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
            free.remove(j0)
            used.append(j0)
        while j0 != 0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    row_to_col = [0] * n
    for j in range(1, n + 1):
        if p[j] != 0:
            row_to_col[p[j] - 1] = j - 1
    return np.array(u[1:]), np.array(v[1:]), row_to_col


# ---------------------------------------------------------------------------
# submodular functions


def similarity(a: np.ndarray, b: np.ndarray) -> float:
    """1 - 0.5 * L1 distance; equals histogram intersection on normalized input."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"signature dimensions differ: {a.shape} vs {b.shape}")
    return float(1.0 - 0.5 * np.abs(a - b).sum())


def best_subset(evaluate, n: int, k: int):
    """Exhaustive max of a set function over all size-k subsets of range(n)."""
    best_val, best_set = -math.inf, None
    for combo in itertools.combinations(range(n), k):
        val = evaluate(list(combo))
        if val > best_val:
            best_val, best_set = val, combo
    return best_val, best_set


def facility_location_value(sim, subset) -> float:
    """f(X) = sum over ground items of the best similarity into X."""
    sim = np.asarray(sim)
    if not subset:
        return 0.0
    return float(np.sum(np.max(sim[:, list(subset)], axis=1)))


def saturated_coverage_value(sim, subset, alpha: float = 0.5) -> float:
    sim = np.asarray(sim)
    caps = alpha * np.sum(sim, axis=1)
    if not subset:
        return 0.0
    got = np.sum(sim[:, list(subset)], axis=1)
    return float(np.sum(np.minimum(got, caps)))


# naive greedy over a model's own new_state / gain / add, the reference for
# vigil's lazy greedy; it returns vigil's SelectionStep so that whole traces
# compare with ==
def greedy_trace(model, budget: int):
    """Naive greedy: re-evaluate every candidate each round, ties to lowest index."""
    from vigil.summarize import SelectionStep

    if budget < 0:
        raise ValueError("budget must be >= 0")
    k = min(budget, model.n)
    state = model.new_state()
    selected = np.zeros(model.n, dtype=bool)
    steps = []
    total = 0.0
    for rank in range(1, k + 1):
        best_j, best_gain = -1, -np.inf
        for j in range(model.n):
            if selected[j]:
                continue
            g = model.gain(state, j)
            if g > best_gain:
                best_j, best_gain = j, g
        model.add(state, best_j)
        selected[best_j] = True
        total += best_gain
        steps.append(SelectionStep(rank, best_j, best_gain, total))
    return steps


# the two models' marginal gains frozen as they were before they wrote into
# one kept n-vector: fresh temporaries and ndarray.sum, given the model's row
def facility_location_gain_reference(row, state) -> float:
    return float(np.maximum(row - state, 0.0).sum())


def saturated_coverage_gain_reference(row, state, cap) -> float:
    after = np.minimum(state + row, cap)
    return float((after - np.minimum(state, cap)).sum())


def signature_rows_reference(rows) -> np.ndarray:
    """ground_set_from_csv's normalization, frozen as it was before the rows
    were divided as one matrix: each row by its own sum, all-zero rows kept."""
    out = []
    for row in rows:
        vec = np.array([float(x) for x in row])
        total = vec.sum()
        out.append(vec if total == 0.0 else vec / total)
    return np.array(out)


# ---------------------------------------------------------------------------
# calculus


def softmax_reference(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax frozen as it was before its max and sum ran over the
    class columns: both reduce along the last axis, one row at a time."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def finite_difference_gradient(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function of a flat vector."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        grad[i] = (f(x + step) - f(x - step)) / (2.0 * h)
    return grad


# ---------------------------------------------------------------------------
# detection evaluation


def average_precision_reference(tp_flags, n_gt: int):
    """All-point interpolated AP, integrating max-precision-at-recall>=r."""
    if n_gt <= 0:
        return None
    if not tp_flags:
        return 0.0
    precisions, recalls = [], []
    tp = 0
    for i, flag in enumerate(tp_flags, start=1):
        tp += 1 if flag else 0
        precisions.append(tp / i)
        recalls.append(tp / n_gt)
    ap = 0.0
    prev_r = 0.0
    for i, flag in enumerate(tp_flags):
        if not flag:
            continue
        r = recalls[i]
        peak = max(p for p, rr in zip(precisions, recalls) if rr >= r)
        ap += (r - prev_r) * peak
        prev_r = r
    return ap


# ---------------------------------------------------------------------------
# augmentation: the general affine warp y = A x + B with optional color
# jitter, frozen as it was before the warp was cut down to the rotation,
# shear and flip that TransformParams describes.  Its taps are 2-D gathers
# from the image converted to float, as apply_params' were before each tap
# became one take of pixel rows.


def affine_reference(angle_deg, shear, flip):
    """(A, B) composing flip, then shear, then rotation; B = 0."""
    th = math.radians(angle_deg)
    rot = np.array([[math.cos(th), -math.sin(th)],
                    [math.sin(th), math.cos(th)]])
    sh = np.array([[1.0, shear], [0.0, 1.0]])
    fl = np.diag([-1.0, 1.0]) if flip else np.eye(2)
    return rot @ sh @ fl, np.zeros(2)


def warp_reference(img, A, B, jitter=None):
    """Bilinear warp about the image center with black fill; *jitter* is
    (scale, offset) applied before rounding and clipping to uint8."""
    img = np.asarray(img)
    gray = img.ndim == 2
    h, w = img.shape[:2]
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
    if abs(det) < 1e-12:
        raise ValueError("transform matrix is singular")
    inv = np.array([[A[1, 1], -A[0, 1]], [-A[1, 0], A[0, 0]]]) / det

    cx, cy = (w - 1) / 2.0, (h - 1) / 2.0
    gx = (np.arange(w) - cx)[None, :] - B[0]
    gy = (np.arange(h) - cy)[:, None] - B[1]
    sx = inv[0, 0] * gx + inv[0, 1] * gy + cx
    sy = inv[1, 0] * gx + inv[1, 1] * gy + cy

    x0 = np.floor(sx).astype(np.int64)
    y0 = np.floor(sy).astype(np.int64)
    fx = sx - x0
    fy = sy - y0

    data = (img if not gray else img[..., None]).astype(float)

    def at(yy, xx):
        inside = (xx >= 0) & (xx < w) & (yy >= 0) & (yy < h)
        vals = data[np.clip(yy, 0, h - 1), np.clip(xx, 0, w - 1)]
        return vals * inside[..., None]

    wx, wy = fx[..., None], fy[..., None]
    out = (at(y0, x0) * (1 - wx) * (1 - wy)
           + at(y0, x0 + 1) * wx * (1 - wy)
           + at(y0 + 1, x0) * (1 - wx) * wy
           + at(y0 + 1, x0 + 1) * wx * wy)

    if jitter is not None:
        out = out * jitter[0] + jitter[1]
    out = np.clip(np.rint(out), 0, 255).astype(np.uint8)
    return out[..., 0] if gray else out


# ---------------------------------------------------------------------------
# Kalman reference (explicit-inverse textbook forms)


def kalman_predict_reference(x, P, F, Q):
    x = np.asarray(x, dtype=float)
    P = np.asarray(P, dtype=float)
    return F @ x, F @ P @ F.T + Q


def kalman_update_reference(x, P, z, R):
    """Measurement update with H = [I4 | 0] and an explicit matrix inverse."""
    dim = len(x)
    H = np.zeros((4, dim))
    H[:, :4] = np.eye(4)
    S = H @ P @ H.T + R
    K = P @ H.T @ np.linalg.inv(S)
    x_new = x + K @ (np.asarray(z, dtype=float) - H @ x)
    P_new = P - K @ H @ P
    return x_new, P_new


# ---------------------------------------------------------------------------
# tracker: the per-filter SORT tracker, frozen as it was before the tracker
# took over the Kalman state as stacked arrays.  Each track owns its own
# state vector and covariance, gathered into stacks and scattered back on
# every step, and boxes come from scalar Python float arithmetic.  It
# reuses vigil's IoU matrix and assignment solver (which have oracles of
# their own above), so that a comparison tests the state handling alone.


_KF_F = np.eye(7)
_KF_F[0, 4] = _KF_F[1, 5] = _KF_F[2, 6] = 1.0
_KF_Q = np.diag([1e-2, 1e-2, 1e-2, 1e-4, 1e-2, 1e-2, 1e-4])
_KF_R = np.diag([1.0, 1.0, 10.0, 10.0])
_KF_P0 = np.diag([10.0, 10.0, 10.0, 10.0, 1e3, 1e3, 1e3])
_KF_FLOOR = 1e-4


def kalman_measurement_reference(box):
    """Corner box (x1, y1, x2, y2) -> measurement (u, v, s, r), on Python
    floats: the scalar formula vigil.kalman.measurement vectorises."""
    x1, y1, x2, y2 = box
    w, h = x2 - x1, y2 - y1
    return (x1 + 0.5 * w, y1 + 0.5 * h, w * h, w / h)


class ReferenceTrack:
    def __init__(self, track_id, class_label, box):
        self.track_id = track_id
        self.class_label = class_label
        self.status = "Tentative"
        self.hits = 0
        self.time_since_update = 0
        self.x = np.zeros(7)
        self.x[:4] = kalman_measurement_reference(box)
        self.P = _KF_P0.copy()

    @property
    def bbox(self):
        u, v, s, r = self.x[:4].tolist()
        w = math.sqrt(max(s * r, 0.0))
        h = s / w
        return (u - 0.5 * w, v - 0.5 * h, u + 0.5 * w, v + 0.5 * h)


class ReferenceSortTracker:
    """step(detections) with detections as (box tuple, class label) pairs;
    returns the Confirmed tracks.  `pins` counts area clamps in predict."""

    def __init__(self, iou_min, max_age, min_hits, per_class):
        self.iou_min, self.max_age = iou_min, max_age
        self.min_hits, self.per_class = min_hits, per_class
        self.tracks = []
        self.pins = 0
        self._next_id = 1

    def step(self, detections):
        from vigil.assignment import hungarian_assign
        from vigil.geometry import iou_matrix

        tracks = self.tracks
        if tracks:
            x = np.array([t.x for t in tracks])
            x[:, :3] += x[:, 4:]
            pinned = x[:, 2] <= 0.0
            self.pins += int(pinned.sum())
            x[pinned, 2] = _KF_FLOOR
            x[pinned, 6] = 0.0
            P = _KF_F @ np.array([t.P for t in tracks]) @ _KF_F.T \
                + np.array([_KF_Q for _ in tracks])
            for t, x_new, P_new in zip(tracks, x, P):
                t.x[:] = x_new
                t.P = P_new

        matches = []
        if tracks and detections:
            overlap = iou_matrix(np.array([t.bbox for t in tracks]),
                                 np.array([box for box, _ in detections]))
            groups = [(list(range(len(tracks))), list(range(len(detections))))]
            if self.per_class:
                labels = sorted({t.class_label for t in tracks}
                                & {label for _, label in detections})
                groups = [([i for i, t in enumerate(tracks) if t.class_label == label],
                           [j for j, d in enumerate(detections) if d[1] == label])
                          for label in labels]
            for t_idx, d_idx in groups:
                sub = overlap[np.ix_(t_idx, d_idx)]
                for r, c in hungarian_assign(1.0 - sub):
                    if sub[r, c] >= self.iou_min:
                        matches.append((t_idx[r], d_idx[c]))

        if matches:
            filters = [tracks[ti] for ti, _ in matches]
            z = np.array([kalman_measurement_reference(detections[di][0]) for _, di in matches])
            x = np.array([t.x for t in filters])
            P = np.array([t.P for t in filters])
            innovation = z - x[:, :4]
            S = P[:, :4, :4] + np.array([_KF_R for _ in filters])
            K = np.linalg.solve(S, P[:, :, :4].transpose(0, 2, 1)).transpose(0, 2, 1)
            x += (K @ innovation[:, :, None])[:, :, 0]
            P = P - K @ P[:, :4, :]
            P = (P + P.transpose(0, 2, 1)) * 0.5
            np.maximum(x[:, 2:4], _KF_FLOOR, out=x[:, 2:4])
            for t, x_new, P_new in zip(filters, x, P):
                t.x[:] = x_new
                t.P = P_new
        for ti, _ in matches:
            t = tracks[ti]
            t.hits += 1
            t.time_since_update = 0
            if t.status == "Tentative" and t.hits >= self.min_hits:
                t.status = "Confirmed"

        matched_t = {ti for ti, _ in matches}
        for ti, t in enumerate(tracks):
            if ti not in matched_t:
                t.hits = 0
                t.time_since_update += 1
                if t.time_since_update >= self.max_age:
                    t.status = "Deleted"

        matched_d = {di for _, di in matches}
        spawned = []
        for di, (box, label) in enumerate(detections):
            if di not in matched_d and box[2] - box[0] > 0.0 and box[3] - box[1] > 0.0:
                spawned.append(ReferenceTrack(self._next_id, label, box))
                self._next_id += 1
        self.tracks = [t for t in tracks if t.status != "Deleted"] + spawned
        return [t for t in self.tracks if t.status == "Confirmed"]


# ---------------------------------------------------------------------------
# dump reading: read_dump frozen as it was before its fast path, every line
# through json.loads, the field checks and the Detection checks, with the
# finiteness check that also rejects an int beyond the float range.  It
# reuses vigil's value types and DumpFormatError, whose messages it must
# raise, so that a comparison tests the parsing alone.

_REF_DUMP_FIELDS = ("frame", "ts_ms", "class", "x1", "y1", "x2", "y2", "conf")


def _ref_dump_record(path, line_no, line):
    from vigil.errors import DumpFormatError

    try:
        rec = json.loads(line)
    except json.JSONDecodeError as exc:
        raise DumpFormatError(path, line_no, f"invalid JSON: {exc.msg}") from exc
    if not isinstance(rec, dict):
        raise DumpFormatError(path, line_no, "record is not a JSON object")
    missing = [k for k in _REF_DUMP_FIELDS if k not in rec]
    if missing:
        raise DumpFormatError(path, line_no, f"missing fields: {', '.join(missing)}")
    extra = [k for k in rec if k not in _REF_DUMP_FIELDS]
    if extra:
        raise DumpFormatError(path, line_no, f"unknown fields: {', '.join(extra)}")
    for key in ("frame", "ts_ms"):
        if not isinstance(rec[key], int) or isinstance(rec[key], bool):
            raise DumpFormatError(path, line_no, f'"{key}" must be an integer')
    if not isinstance(rec["class"], str):
        raise DumpFormatError(path, line_no, '"class" must be a string')
    for key in ("x1", "y1", "x2", "y2", "conf"):
        if isinstance(rec[key], bool) or not isinstance(rec[key], (int, float)):
            raise DumpFormatError(path, line_no, f'"{key}" must be a number')
        try:
            value = float(rec[key])
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise DumpFormatError(path, line_no, f'"{key}" must be finite')
    return rec


def read_dump_reference(path):
    """Yield (FrameMeta, [Detection]) frame groups of a detection dump."""
    from vigil.errors import DumpFormatError
    from vigil.geometry import BoundingBox, Detection, FrameMeta

    meta = None
    group = []
    last_frame = None
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            rec = _ref_dump_record(path, line_no, line)
            fid = rec["frame"]
            if last_frame is not None and fid < last_frame:
                raise DumpFormatError(
                    path, line_no, f'"frame" {fid} decreases (previous {last_frame})')
            if fid < 0:
                raise DumpFormatError(path, line_no, f'"frame" must be >= 0, got {fid}')
            ts = rec["ts_ms"]
            if meta is not None and fid != meta.frame_id and ts < meta.timestamp_ms:
                raise DumpFormatError(
                    path, line_no, f'"ts_ms" {ts} decreases (previous frame {meta.timestamp_ms})')
            try:
                det = Detection(
                    frame=FrameMeta(fid, ts)
                    if meta is None or fid != meta.frame_id else meta,
                    bbox=BoundingBox(float(rec["x1"]), float(rec["y1"]),
                                     float(rec["x2"]), float(rec["y2"])),
                    class_label=rec["class"],
                    confidence=float(rec["conf"]),
                )
            except ValueError as exc:
                raise DumpFormatError(path, line_no, str(exc)) from exc
            if meta is not None and fid != meta.frame_id:
                yield meta, group
                group = []
            meta = det.frame
            group.append(det)
            last_frame = fid
    if meta is not None:
        yield meta, group


# ---------------------------------------------------------------------------
# zone containment: Zone.contains and rules.place frozen as they were before
# place compared all anchors with all reach boxes at once, one closed-box
# test and then one ray cast per (track, zone).  They reuse vigil's
# point_in_polygon (which has oracles above) and the zone's prepared reach
# box and edge table, so that a comparison tests the placement alone.


def zone_contains_reference(zone, point) -> bool:
    """Edge-inclusive test; points outside ``zone.reach`` skip the ray cast."""
    from vigil.geometry import point_in_polygon

    reach = zone.reach
    x, y = point
    return (reach.x1 <= x <= reach.x2 and reach.y1 <= y <= reach.y2
            and point_in_polygon(point, zone.polygon, zone.edges))


def reference_anchor(track):
    """The anchor of a track's ``corners``, as BoundingBox computes it."""
    from vigil.geometry import BoundingBox

    return BoundingBox(*track.corners).anchor


def reference_place(zones, tracks) -> dict:
    """track_id -> (class label, anchor, ids of the *zones* containing it)
    for the confirmed tracks in *tracks*, in their order; *zones* is a list."""
    placed = {}
    for track in tracks:
        if track.status.value == "Confirmed":
            anchor = reference_anchor(track)
            placed[track.track_id] = (
                track.class_label, anchor,
                frozenset(z.id for z in zones if zone_contains_reference(z, anchor)))
    return placed


# ---------------------------------------------------------------------------
# rules: the rule engine frozen as it was while it kept its track state per
# (rule, track): whether the track was inside the rule's zone and its last
# anchor, written for every rule that applies to the track on every frame
# it is confirmed.  It tests each rule's zone itself with
# zone_contains_reference and reuses vigil's crossing(), so that a
# comparison tests the state handling alone.


_REF_COMPARATORS = {">=": lambda a, b: a >= b, "<=": lambda a, b: a <= b,
                    ">": lambda a, b: a > b, "<": lambda a, b: a < b,
                    "==": lambda a, b: a == b}


def _ref_applies(rule, class_label) -> bool:
    if rule.class_filter is not None and class_label not in rule.class_filter:
        return False
    if rule.zone is not None and rule.zone.class_filter is not None:
        return class_label in rule.zone.class_filter
    return True


class ReferenceRuleEngine:
    """evaluate(frame, tracks) -> alert rows as vigil.rules.alert_record
    gives them, for frames in order."""

    def __init__(self, rules):
        self.rules = list(rules)
        self._inside = {}        # (rule_id, track_id) -> bool
        self._prev_anchor = {}   # (rule_id, track_id) -> last anchor
        self._loiter_start = {}  # (rule_id, track_id) -> entry ts
        self._last_emit = {}     # (rule_id, track_id or None) -> ts
        self._occupancy_on = {r.id: False for r in rules if r.kind == "Occupancy"}

    def evaluate(self, frame, tracks):
        from vigil.rules import crossing

        ts = frame.timestamp_ms
        confirmed = [t for t in tracks if t.status.value == "Confirmed"]
        events = []

        def emit(rule, track_id, payload):
            last = self._last_emit.get((rule.id, track_id))
            if last is None or ts - last >= rule.debounce_ms:
                events.append({"rule_id": rule.id, "track_id": track_id,
                               "frame_id": frame.frame_id, "timestamp_ms": ts,
                               "kind": rule.kind, "payload": payload})

        for rule in self.rules:
            relevant = [t for t in confirmed if _ref_applies(rule, t.class_label)]
            if rule.kind == "Occupancy":
                count = sum(1 for t in relevant
                            if zone_contains_reference(rule.zone, reference_anchor(t)))
                holds = _REF_COMPARATORS[rule.comparator](count, rule.min_count)
                armed = not self._occupancy_on[rule.id]
                self._occupancy_on[rule.id] = holds
                if holds and armed:
                    emit(rule, None, {"count": count})
                continue
            for t in relevant:
                key = (rule.id, t.track_id)
                anchor = reference_anchor(t)
                if rule.kind == "LineCross":
                    prev = self._prev_anchor.get(key)
                    self._prev_anchor[key] = anchor
                    if prev is None:
                        continue
                    direction = crossing(prev, anchor, rule.line)
                    if direction is not None and rule.line.direction in ("any", direction):
                        emit(rule, t.track_id, {"direction": direction})
                    continue
                inside = zone_contains_reference(rule.zone, anchor)
                was_inside = self._inside.get(key)
                self._inside[key] = inside
                if rule.kind == "Intrusion":
                    if inside and was_inside is False:
                        emit(rule, t.track_id, {"anchor": [anchor[0], anchor[1]]})
                elif inside:
                    dwell = ts - self._loiter_start.setdefault(key, ts)
                    if dwell >= rule.threshold_ms:
                        emit(rule, t.track_id, {"dwell_ms": dwell})
                else:
                    self._loiter_start.pop(key, None)

        for ev in events:
            self._last_emit[(ev["rule_id"], ev["track_id"])] = ev["timestamp_ms"]
        return events


# ---------------------------------------------------------------------------
# scene statistics (brute-force recomputation from a raw track log)


def heat_recount(anchors, width, height, cell_size):
    """Cell -> count from anchor points; closed domain with far-edge clamp."""
    gw = -(-width // cell_size)
    gh = -(-height // cell_size)
    counts = {}
    for ax, ay in anchors:
        if not (0 <= ax <= width and 0 <= ay <= height):
            continue
        cx = min(int(ax // cell_size), gw - 1)
        cy = min(int(ay // cell_size), gh - 1)
        counts[(cx, cy)] = counts.get((cx, cy), 0) + 1
    return counts


def stats_grids_reference(frames, width, height, cell_size):
    """(heat, flow_dx, flow_dy, flow_n) from frames of (track_id, anchor)
    pairs, in ingest order.

    SceneStats.ingest's grid updates frozen as they were while each track
    added into the 2-D grids through numpy scalar indexing: the cell as
    (cell_x, cell_y), or None outside the frame, and a track's displacement
    added at the cell of its previous anchor.
    """
    gw = -(-width // cell_size)
    gh = -(-height // cell_size)
    heat = np.zeros((gh, gw), dtype=np.int64)
    flow_dx = np.zeros((gh, gw))
    flow_dy = np.zeros((gh, gw))
    flow_n = np.zeros((gh, gw), dtype=np.int64)
    last = {}  # track_id -> (anchor, cell)
    for pairs in frames:
        for tid, (ax, ay) in pairs:
            if 0.0 <= ax <= width and 0.0 <= ay <= height:
                cell = (min(int(ax // cell_size), gw - 1), min(int(ay // cell_size), gh - 1))
                heat[cell[1], cell[0]] += 1
            else:
                cell = None
            if tid in last:
                (px, py), prev_cell = last[tid]
                if prev_cell is not None:
                    flow_dx[prev_cell[1], prev_cell[0]] += ax - px
                    flow_dy[prev_cell[1], prev_cell[0]] += ay - py
                    flow_n[prev_cell[1], prev_cell[0]] += 1
            last[tid] = ((ax, ay), cell)
    return heat, flow_dx, flow_dy, flow_n


def dwell_recount(log, zones):
    """Per-track dwell from a raw log of (track_id, ts_ms, anchor) rows.

    zones: list of (zone_id, contains(point) -> bool).  An inter-observation
    interval accrues to a zone only when the anchor is inside at both ends.
    """
    by_track = {}
    for track_id, ts, anchor in log:
        by_track.setdefault(track_id, []).append((ts, anchor))
    report = {}
    for track_id, rows in by_track.items():
        rows.sort()
        total = rows[-1][0] - rows[0][0]
        zone_ms = {zid: 0 for zid, _ in zones}
        for (t0, a0), (t1, a1) in zip(rows, rows[1:]):
            for zid, inside in zones:
                if inside(a0) and inside(a1):
                    zone_ms[zid] += t1 - t0
        report[track_id] = {"first": rows[0][0], "last": rows[-1][0],
                            "total": total, "zones": zone_ms}
    return report


def unique_count_recount(log, class_of, class_label, t0, t1) -> int:
    """Distinct track ids of a class observed in [t0, t1] from raw log rows."""
    seen = set()
    for track_id, ts, _ in log:
        if class_of[track_id] == class_label and t0 <= ts <= t1:
            seen.add(track_id)
    return len(seen)


# ---------------------------------------------------------------------------
# numeric CSVs: read_numeric_csv frozen as its row loop was before the bulk
# parse, csv.reader and float() cell by cell.  It raises vigil's DataError,
# whose messages it must match, and returns the numbers as lists.


def read_numeric_csv_reference(path, text_fields, short):
    """(text columns, float rows, line numbers) of a headerless numeric CSV."""
    import csv

    from vigil.errors import DataError

    texts = [[] for _ in range(text_fields)]
    rows = []
    line_nos = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for ln, row in enumerate(csv.reader(fh), start=1):
            if not row:
                continue
            if len(row) <= text_fields:
                raise DataError(f"{path} row {ln}: {short}")
            try:
                values = list(map(float, row[text_fields:]))
            except ValueError as exc:
                raise DataError(f"{path} row {ln}: {exc}") from exc
            if rows and len(values) != len(rows[0]):
                raise DataError(f"{path} row {ln}: inconsistent dimension")
            for column, cell in zip(texts, row):
                column.append(cell)
            rows.append(values)
            line_nos.append(ln)
    return texts, rows, line_nos


# ---------------------------------------------------------------------------
# evaluation matching: match frozen as it was before the per-frame IoU
# matrix, with one scalar IoU per (prediction, unmatched ground truth) pair
# of a (frame, class) bucket.  Inputs are Detection lists.


def iou_scalar_reference(a, b) -> float:
    ix = min(a.x2, b.x2) - max(a.x1, b.x1)
    iy = min(a.y2, b.y2) - max(a.y1, b.y1)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    union = (a.x2 - a.x1) * (a.y2 - a.y1) + (b.x2 - b.x1) * (b.y2 - b.y1) - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def match_reference(preds, gts, iou_threshold):
    """(outcome tuples in processing order, gt matched flags, class -> gt count).

    An outcome is (input index, frame id, class, confidence, tp, gt index or
    None).  Predictions go in descending confidence, then frame id, then
    input order; each claims its best-IoU unmatched ground truth of its
    frame and class (strictly best, first on ties) when that IoU reaches the
    threshold.
    """
    buckets = {}
    n_gt = {}
    for gi, gt in enumerate(gts):
        buckets.setdefault((gt.frame.frame_id, gt.class_label), []).append(gi)
        n_gt[gt.class_label] = n_gt.get(gt.class_label, 0) + 1
    order = sorted(range(len(preds)),
                   key=lambda i: (-preds[i].confidence, preds[i].frame.frame_id, i))
    matched = [False] * len(gts)
    outcomes = []
    for pi in order:
        pred = preds[pi]
        best_gi, best_iou = None, 0.0
        for gi in buckets.get((pred.frame.frame_id, pred.class_label), ()):
            if matched[gi]:
                continue
            overlap = iou_scalar_reference(pred.bbox, gts[gi].bbox)
            if overlap > best_iou:
                best_gi, best_iou = gi, overlap
        is_tp = best_gi is not None and best_iou >= iou_threshold
        if is_tp:
            matched[best_gi] = True
        outcomes.append((pi, pred.frame.frame_id, pred.class_label, pred.confidence,
                         is_tp, best_gi if is_tp else None))
    return outcomes, matched, n_gt


# ---------------------------------------------------------------------------
# tracking evaluation


def id_switches(tracks_by_frame: dict, gt_by_frame: dict,
                iou_min: float = 0.3) -> int:
    """Count identity changes against ground-truth objects.

    tracks_by_frame: frame_id -> [(track_id, BoundingBox), ...]
    gt_by_frame:     frame_id -> [(gt_identity, BoundingBox), ...]

    Each frame, every ground-truth object is associated with the track of
    best IoU >= iou_min (no exclusivity); a switch is a frame where the
    associated track id differs from that object's previous association.
    Frames without an association neither count nor reset.
    """
    last: dict = {}
    switches = 0
    for frame_id in sorted(gt_by_frame):
        tracks = tracks_by_frame.get(frame_id, [])
        for identity, gt_box in gt_by_frame[frame_id]:
            best_tid, best = None, -1.0
            for tid, box in tracks:
                overlap = iou_scalar_reference(box, gt_box)
                if overlap > best:
                    best_tid, best = tid, overlap
            if best_tid is None or best < iou_min:
                continue
            if identity in last and last[identity] != best_tid:
                switches += 1
            last[identity] = best_tid
    return switches
