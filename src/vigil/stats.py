"""Track-stream analytics: heat-maps, flow-maps, dwell times, unique counts.

All spatial statistics use the track's anchor point -- the bottom-center
of its box (the foot point for ground-plane analytics).  The frame extent
is divided into square cells; anchors on the far frame edge land in the
last cell.  Flow displacements accrue to the cell of the previous anchor.
Dwell uses frame timestamps, not frame counts.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError, DataError, write_csv, write_json
from .geometry import FrameMeta
# Not called here (zones are rules.Zone), but perfbench/tracing.py wraps
# vigil.stats.point_in_polygon, and its install() fails when the name is gone.
from .geometry import point_in_polygon  # noqa: F401
from .images import write_image
from .rules import Zone, ZoneSet, place
from .tracker import Track


@dataclass(frozen=True)
class GridSpec:
    cell_size: int = 10

    def __post_init__(self):
        if self.cell_size < 1:
            raise ConfigError("cell_size must be >= 1")

    def dims(self, width: int, height: int) -> tuple[int, int]:
        """(cells_x, cells_y) covering a width x height frame."""
        return (-(-width // self.cell_size), -(-height // self.cell_size))


@dataclass
class DwellRecord:
    track_id: int
    class_label: str
    first_seen_ms: int
    last_seen_ms: int
    zone_ms: dict = field(default_factory=dict)

    @property
    def total_ms(self) -> int:
        return self.last_seen_ms - self.first_seen_ms


@dataclass
class _TrackTrace:
    record: DwellRecord  # the one record of the track; last ts is last_seen_ms
    timestamps: list  # observation ts_ms, ascending
    last_anchor: tuple[float, float]
    last_cell: Optional[tuple[int, int]]  # _cell(last_anchor)
    last_zones: frozenset


class SceneStats:
    """Single-writer accumulator for one source's confirmed tracks.

    Zones (for dwell attribution) are a :class:`vigil.rules.ZoneSet`, kept
    as given, or a list of :class:`vigil.rules.Zone` objects or (zone_id,
    polygon) pairs, made into Zones here, so a polygon with fewer than 3
    vertices or one that self-intersects is a ConfigError.  An inter-frame
    interval counts toward a zone when the anchors at both endpoints lie
    inside it (edge-inclusive, as :func:`vigil.rules.place` tests it).
    """

    def __init__(self, width: int, height: int,
                 grid: Optional[GridSpec] = None,
                 zones: Optional[list] = None):
        if width <= 0 or height <= 0:
            raise ConfigError("frame dimensions must be positive")
        self.width = width
        self.height = height
        self.grid = grid if grid is not None else GridSpec()
        # a ZoneSet is kept as given, so the pipeline's stats share the rule
        # engine's zones instead of preparing and checking each polygon again
        if not isinstance(zones, ZoneSet):
            zones = ZoneSet(z if isinstance(z, Zone) else Zone(*z) for z in zones or ())
        self.zones = zones
        gw, gh = self.grid.dims(width, height)
        self.heat = np.zeros((gh, gw), dtype=np.int64)
        self.flow_dx = np.zeros((gh, gw))
        self.flow_dy = np.zeros((gh, gw))
        self.flow_n = np.zeros((gh, gw), dtype=np.int64)
        self.observations = 0          # in-bounds anchor samples
        self._traces: dict = {}        # track_id -> _TrackTrace
        self._last_frame: Optional[int] = None

    # -- ingestion --------------------------------------------------------

    def _cell(self, anchor) -> Optional[tuple[int, int]]:
        ax, ay = anchor
        if not (0.0 <= ax <= self.width and 0.0 <= ay <= self.height):
            return None
        cs = self.grid.cell_size
        gh, gw = self.heat.shape
        return (min(int(ax // cs), gw - 1), min(int(ay // cs), gh - 1))

    def ingest(self, frame: FrameMeta, tracks: list[Track],
               placed: Optional[dict] = None) -> None:
        """Fold one frame's confirmed tracks into the statistics.

        The frame is read from *placed* alone, :func:`vigil.rules.place`
        over this frame's tracks and zones with the same ids and polygons as
        ``self.zones`` (the pipeline passes the one it gave
        :meth:`RuleEngine.evaluate`); when omitted, it is computed here.
        """
        if self._last_frame is not None and frame.frame_id <= self._last_frame:
            raise DataError(
                f"out-of-order frame_id {frame.frame_id} after {self._last_frame}")
        self._last_frame = frame.frame_id
        ts = frame.timestamp_ms
        if placed is None:
            placed = place(self.zones, tracks)

        for tid, (label, anchor, zones_now) in placed.items():
            cell = self._cell(anchor)
            if cell is not None:
                self.heat[cell[1], cell[0]] += 1
                self.observations += 1

            trace = self._traces.get(tid)
            if trace is None:
                record = DwellRecord(tid, label, ts, ts,
                                     {zone.id: 0 for zone in self.zones.zones})
                self._traces[tid] = _TrackTrace(
                    record, [ts], anchor, cell, zones_now)
            else:
                prev_cell = trace.last_cell
                if prev_cell is not None:
                    self.flow_dx[prev_cell[1], prev_cell[0]] += anchor[0] - trace.last_anchor[0]
                    self.flow_dy[prev_cell[1], prev_cell[0]] += anchor[1] - trace.last_anchor[1]
                    self.flow_n[prev_cell[1], prev_cell[0]] += 1
                rec = trace.record
                interval = ts - rec.last_seen_ms
                for zid in trace.last_zones & zones_now:
                    rec.zone_ms[zid] = rec.zone_ms.get(zid, 0) + interval
                rec.last_seen_ms = ts
                trace.timestamps.append(ts)
                trace.last_anchor = anchor
                trace.last_cell = cell
                trace.last_zones = zones_now

    # -- queries ----------------------------------------------------------

    def unique_count(self, class_label: str, t0: int, t1: int) -> int:
        """Distinct confirmed tracks of a class observed in [t0, t1]."""
        if t0 > t1:
            raise ValueError("window start must not exceed its end")
        count = 0
        for trace in self._traces.values():
            if trace.record.class_label != class_label:
                continue
            i = bisect.bisect_left(trace.timestamps, t0)
            if i < len(trace.timestamps) and trace.timestamps[i] <= t1:
                count += 1
        return count

    def unique_counts_by_class(self) -> dict:
        """Whole-run distinct track counts per class, labels sorted."""
        counts: dict = {}
        for trace in self._traces.values():
            label = trace.record.class_label
            counts[label] = counts.get(label, 0) + 1
        return {k: counts[k] for k in sorted(counts)}

    def dwell_report(self) -> list[DwellRecord]:
        return [self._traces[tid].record for tid in sorted(self._traces)]

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
        records = []
        for rec in self.dwell_report():
            records.append({
                "track_id": rec.track_id,
                "class": rec.class_label,
                "first_seen_ms": rec.first_seen_ms,
                "last_seen_ms": rec.last_seen_ms,
                "total_ms": rec.total_ms,
                "zone_ms": {k: rec.zone_ms[k] for k in sorted(rec.zone_ms)},
            })
        return {"tracks": records}

    def counts_doc(self) -> dict:
        return {
            "per_class": self.unique_counts_by_class(),
            "total_tracks": len(self._traces),
            "observations": int(self.observations),
        }

    def write_dwell_json(self, path) -> None:
        write_json(path, self.dwell_report_doc())

    def write_counts_json(self, path) -> None:
        write_json(path, self.counts_doc())
