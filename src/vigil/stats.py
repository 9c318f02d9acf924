"""Track-stream analytics: heat-maps, flow-maps, dwell times, unique counts.

All spatial statistics use the track's anchor point -- the bottom-center
of its box (the foot point for ground-plane analytics).  The frame extent
is divided into square cells; anchors on the far frame edge land in the
last cell.  Flow displacements accrue to the cell of the previous anchor.
Dwell uses frame timestamps, not frame counts.  Each confirmed track has
one record, from which the dwell and count reports are built when
written, first and last seen being its first and last observation.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import finite
from .errors import ConfigError, next_frame, write_csv, write_json
from .geometry import FrameMeta
# Not called here (zones are rules.Zone), but perfbench/tracing.py wraps
# vigil.stats.point_in_polygon, and its install() fails when the name is gone.
from .geometry import point_in_polygon  # noqa: F401
from .images import write_image
from .rules import ZoneSet


@dataclass(frozen=True)
class GridSpec:
    cell_size: int = 10

    def __post_init__(self):
        if self.cell_size < 1:
            raise ConfigError("cell_size must be >= 1")
        if not finite(self.cell_size):  # ingest divides float anchors by it
            raise ConfigError("cell_size is too large for a float")

    def dims(self, width: int, height: int) -> tuple[int, int]:
        """(cells_x, cells_y) covering a width x height frame."""
        return (-(-width // self.cell_size), -(-height // self.cell_size))


@dataclass(slots=True)
class _Track:
    """One confirmed track: its class label, its last frame's cell as a
    flat index ``cell_y * cells_x + cell_x`` into the grids (or None outside
    the frame), its observation timestamps (ascending, so first and last
    seen are the ends) and its dwell per zone id, holding only the zones it
    has dwelt in."""

    label: str
    cell: Optional[int]
    timestamps: list
    zone_ms: dict


class SceneStats:
    """Single-writer accumulator for one source's confirmed tracks.

    *zones* (for dwell attribution) is the :class:`vigil.rules.ZoneSet`
    the tracks are placed over, kept as given (the pipeline passes the rule
    engine's), or None for no zones.  An inter-frame interval counts toward
    a zone when the anchors at both endpoints lie inside it (edge-inclusive,
    as :func:`vigil.rules.place` tests it).

    ``heat``, ``flow_dx``, ``flow_dy`` and ``flow_n`` are (cells_y, cells_x)
    grids; :meth:`ingest` adds into them at a track's cell, kept as the flat
    index ``cell_y * cells_x + cell_x``.
    """

    def __init__(self, width: int, height: int,
                 grid: Optional[GridSpec] = None,
                 zones: Optional[ZoneSet] = None):
        if width <= 0 or height <= 0:
            raise ConfigError("frame dimensions must be positive")
        self.width = width
        self.height = height
        self.grid = grid if grid is not None else GridSpec()
        self.zones = zones if zones is not None else ZoneSet(())
        gw, gh = self.grid.dims(width, height)
        try:
            self.heat = np.zeros((gh, gw), dtype=np.int64)
            self.flow_dx = np.zeros((gh, gw))
            self.flow_dy = np.zeros((gh, gw))
            self.flow_n = np.zeros((gh, gw), dtype=np.int64)
        except (ValueError, MemoryError) as exc:  # numpy refuses the grid
            raise ConfigError(f"cell_size {self.grid.cell_size} gives a {gw} x {gh} cell "
                              f"grid, which cannot be allocated: {exc}") from None
        self.observations = 0          # in-bounds anchor samples
        self._tracks: dict = {}        # track_id -> _Track
        self._last_frame: Optional[int] = None

    # -- ingestion --------------------------------------------------------

    def ingest(self, frame: FrameMeta, placed: dict, before: dict) -> None:
        """Fold one frame's confirmed tracks into the statistics from *placed*,
        their :func:`vigil.rules.place` over zones equal to ``self.zones``, and
        *before* as RuleEngine reads it: a track not in it accrues no flow or dwell."""
        self._last_frame = next_frame(self._last_frame, frame.frame_id)
        ts = frame.timestamp_ms

        # an anchor's flat cell index, or None outside the frame (the far
        # frame edge lands in the last cell); a float += on a 'd' item of a
        # flat view is the IEEE add numpy's scalar += does
        width, height = self.width, self.height
        cs = self.grid.cell_size
        gh, gw = self.heat.shape
        last_x, last_y = gw - 1, gh - 1
        heat = memoryview(self.heat.reshape(-1))
        flow_dx = memoryview(self.flow_dx.reshape(-1))
        flow_dy = memoryview(self.flow_dy.reshape(-1))
        flow_n = memoryview(self.flow_n.reshape(-1))
        for tid, (label, anchor, zones_now) in placed.items():
            ax, ay = anchor
            if 0.0 <= ax <= width and 0.0 <= ay <= height:
                cell = min(int(ay // cs), last_y) * gw + min(int(ax // cs), last_x)
                heat[cell] += 1
                self.observations += 1
            else:
                cell = None

            track = self._tracks.get(tid)
            if track is None:
                track = self._tracks[tid] = _Track(label, None, [], {})
            elif tid in before:
                _, prev_anchor, prev_zones = before[tid]
                prev_cell = track.cell
                if prev_cell is not None:
                    flow_dx[prev_cell] += ax - prev_anchor[0]
                    flow_dy[prev_cell] += ay - prev_anchor[1]
                    flow_n[prev_cell] += 1
                if prev_zones and zones_now:
                    interval = ts - track.timestamps[-1]
                    for zid in prev_zones & zones_now:
                        track.zone_ms[zid] = track.zone_ms.get(zid, 0) + interval
            track.timestamps.append(ts)
            track.cell = cell

    # -- queries ----------------------------------------------------------

    def unique_count(self, class_label: str, t0: int, t1: int) -> int:
        """Distinct confirmed tracks of a class observed in [t0, t1]."""
        if t0 > t1:
            raise ValueError("window start must not exceed its end")
        count = 0
        for track in self._tracks.values():
            if track.label != class_label:
                continue
            i = bisect.bisect_left(track.timestamps, t0)
            if i < len(track.timestamps) and track.timestamps[i] <= t1:
                count += 1
        return count

    def average_flow(self) -> tuple[np.ndarray, np.ndarray]:
        """(avg_dx, avg_dy) grids; cells without samples read 0."""
        avg_dx = np.zeros_like(self.flow_dx)
        avg_dy = np.zeros_like(self.flow_dy)
        np.divide(self.flow_dx, self.flow_n, out=avg_dx, where=self.flow_n > 0)
        np.divide(self.flow_dy, self.flow_n, out=avg_dy, where=self.flow_n > 0)
        return avg_dx, avg_dy

    # -- exports ----------------------------------------------------------

    def write_heatmap_csv(self, path) -> None:
        write_csv(path, self.heat.tolist())

    def write_heatmap_pgm(self, path) -> None:
        """Max-normalized rendering: the hottest cell maps to 255."""
        peak = int(self.heat.max())
        if peak == 0:
            img = np.zeros(self.heat.shape, dtype=np.uint8)
        else:
            img = np.rint(self.heat * (255.0 / peak)).astype(np.uint8)
        write_image(path, img)

    def write_flowmap_csv(self, path) -> None:
        """Rows (cell_x, cell_y, avg_dx, avg_dy, samples) for sampled cells."""
        avg_dx, avg_dy = self.average_flow()
        cy, cx = np.nonzero(self.flow_n)  # row-major: by cell_y, then cell_x
        write_csv(path, [["cell_x", "cell_y", "avg_dx", "avg_dy", "samples"],
                         *zip(cx.tolist(), cy.tolist(), avg_dx[cy, cx].tolist(),
                              avg_dy[cy, cx].tolist(), self.flow_n[cy, cx].tolist())])

    def dwell_report_doc(self) -> dict:
        """Each track's class, first, last and total seen ms and dwell in
        every zone of ``self.zones`` (ids sorted, 0 where it never dwelt),
        by track id."""
        zone_ids = sorted(zone.id for zone in self.zones.zones)
        records = []
        for tid in sorted(self._tracks):
            track = self._tracks[tid]
            first, last = track.timestamps[0], track.timestamps[-1]
            records.append({
                "track_id": tid,
                "class": track.label,
                "first_seen_ms": first,
                "last_seen_ms": last,
                "total_ms": last - first,
                "zone_ms": {k: track.zone_ms.get(k, 0) for k in zone_ids},
            })
        return {"tracks": records}

    def counts_doc(self) -> dict:
        """Whole-run distinct track counts per class (labels sorted), the
        track total and the in-bounds anchor samples."""
        per_class: dict = {}
        for track in self._tracks.values():
            per_class[track.label] = per_class.get(track.label, 0) + 1
        return {
            "per_class": {k: per_class[k] for k in sorted(per_class)},
            "total_tracks": len(self._tracks),
            "observations": int(self.observations),
        }

    def write_dwell_json(self, path) -> None:
        write_json(path, self.dwell_report_doc())

    def write_counts_json(self, path) -> None:
        write_json(path, self.counts_doc())
