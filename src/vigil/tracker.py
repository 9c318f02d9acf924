"""SORT-style multi-object tracker.

Each step predicts every live track one frame ahead with the constant
velocity Kalman model, associates predictions to the frame's detections (a
FrameDetections batch of box rows and labels) by Hungarian assignment on
1 - IoU cost (per class by default), then applies the lifecycle rules:
matched tracks are corrected and accumulate hits, unmatched detections
spawn Tentative tracks, and unmatched tracks age out.

The tracker owns one KalmanBoxFilter stack whose row i is the state of
tracks[i].  A step makes one predict over all rows, one update over the
matched rows, one compaction that drops the deleted rows and one add for
the new tracks, and computes all boxes at once: the predictions for
association, then each live track's end-of-step corners, kept as the plain
row [x1, y1, x2, y2] that the frame loop's tail (track rows, placement)
reads; Track.bbox builds a BoundingBox from it only when asked.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .assignment import hungarian_assign
from .errors import ConfigError, next_frame
from .geometry import BoundingBox, Detection, FrameDetections, FrameMeta, iou_matrix
from .kalman import KalmanBoxFilter, measurement


class TrackStatus(enum.Enum):
    TENTATIVE = "Tentative"
    CONFIRMED = "Confirmed"
    DELETED = "Deleted"


@dataclass(frozen=True)
class TrackerConfig:
    iou_min: float = 0.3          # association gate
    max_age: int = 1              # consecutive misses a track survives
    min_hits: int = 3             # matches after spawn before Confirmed
    per_class: bool = True        # associate within class only

    def __post_init__(self):
        if not 0.0 < self.iou_min < 1.0:
            raise ConfigError("iou_min must lie in (0, 1)")
        if self.max_age < 1:
            raise ConfigError("max_age must be >= 1")
        if self.min_hits < 1:
            raise ConfigError("min_hits must be >= 1")


class Track:
    """A track's identity, lifecycle and corners; its Kalman state is the
    row of the owning tracker's KalmanBoxFilter at the track's index in
    SortTracker.tracks.

    ``corners`` is the box of that state at the end of the last step, as
    the list [x1, y1, x2, y2] of kalman.corners' row, which keeps
    BoundingBox's corner rule (no x1 > x2, no y1 > y2).
    """

    __slots__ = ("track_id", "class_label", "status", "hits", "misses", "corners")

    def __init__(self, track_id: int, class_label: str, corners: list | None = None):
        self.track_id = track_id
        self.class_label = class_label
        self.status = TrackStatus.TENTATIVE
        self.hits = 0                 # consecutive matches since the last miss
        self.misses = 0               # consecutive misses since the last match
        self.corners = corners

    @property
    def bbox(self) -> BoundingBox:
        """The box of the track's state at the end of the last step."""
        return BoundingBox(*self.corners)


def track_record(frame: FrameMeta, track: Track) -> dict:
    """One JSONL output row for a track at a frame (fixed key order)."""
    x1, y1, x2, y2 = track.corners
    return {
        "frame": frame.frame_id,
        "track_id": track.track_id,
        "class": track.class_label,
        "x1": x1,
        "y1": y1,
        "x2": x2,
        "y2": y2,
        "status": track.status.value,
    }


class SortTracker:
    """Per-source tracker state machine; calls to step must be sequential."""

    def __init__(self, config: TrackerConfig | None = None):
        self.config = config if config is not None else TrackerConfig()
        self.tracks: list[Track] = []
        self._kf = KalmanBoxFilter()    # row i for tracks[i]
        self._next_id = 1
        self._last_frame: int | None = None

    def step(self, frame: FrameMeta,
             detections: FrameDetections | list[Detection]) -> list[Track]:
        """Advance one frame; returns the live Confirmed tracks.

        *detections* is the frame's batch, as read_dump yields it; a list
        of Detection objects is turned into one first.
        """
        self._last_frame = next_frame(self._last_frame, frame.frame_id)
        if not isinstance(detections, FrameDetections):
            detections = FrameDetections.of(detections)
        cfg = self.config
        tracks = self.tracks
        boxes = detections.boxes

        kf = self._kf
        kf.predict()
        matches, unmatched_tracks, unmatched_dets = self._associate(kf.boxes(), detections)

        # every row's measurement; a matched box overlaps its prediction and
        # a seed is checked below, so only rows of positive area are used
        z = measurement(boxes)
        rows = [ti for ti, _ in matches]
        if rows:
            kf.update(rows, z.take([di for _, di in matches], 0))
        for ti in rows:
            t = tracks[ti]
            t.hits += 1
            t.misses = 0
            if t.status is TrackStatus.TENTATIVE and t.hits >= cfg.min_hits:
                t.status = TrackStatus.CONFIRMED

        for ti in unmatched_tracks:
            t = tracks[ti]
            t.hits = 0
            t.misses += 1
            if t.misses >= cfg.max_age:
                t.status = TrackStatus.DELETED

        live = [i for i, t in enumerate(tracks) if t.status is not TrackStatus.DELETED]
        tracks = [tracks[i] for i in live]
        if len(tracks) < len(self.tracks):
            kf.keep(live)

        # a seed's state must give its box back: positive width and height,
        # and s * r, the squared width, must not underflow to 0
        seeds = [di for di, (x1, y1, x2, y2), (_, _, s, r) in zip(
                     unmatched_dets, boxes.take(unmatched_dets, 0).tolist(),
                     z.take(unmatched_dets, 0).tolist())
                 if x2 - x1 > 0.0 and y2 - y1 > 0.0 and s * r != 0.0]
        if seeds:
            kf.add(z.take(seeds, 0))
            for di in seeds:
                tracks.append(Track(self._next_id, detections.labels[di]))
                self._next_id += 1

        for t, row in zip(tracks, kf.boxes().tolist()):
            t.corners = row
        self.tracks = tracks
        return [t for t in tracks if t.status is TrackStatus.CONFIRMED]

    # -- association ------------------------------------------------------

    def _associate(self, predictions: np.ndarray, detections: FrameDetections):
        matches: list[tuple[int, int]] = []
        if len(predictions) and len(detections):
            # IoU is computed pair by pair, so one matrix over every prediction
            # and detection serves all groups (one group, None, if not per_class)
            overlap = iou_matrix(predictions, detections.boxes)
            per_class = self.config.per_class
            t_groups: dict = {}
            for i, t in enumerate(self.tracks):
                t_groups.setdefault(t.class_label if per_class else None, []).append(i)
            d_groups: dict = {}
            for j, label in enumerate(detections.labels):
                d_groups.setdefault(label if per_class else None, []).append(j)
            for key in sorted(t_groups.keys() & d_groups.keys()):
                t_idx, d_idx = t_groups[key], d_groups[key]
                group = overlap.take(t_idx, 0).take(d_idx, 1)
                for r, c in hungarian_assign(1.0 - group):
                    if group[r, c] >= self.config.iou_min:
                        matches.append((t_idx[r], d_idx[c]))

        matched_t = {ti for ti, _ in matches}
        matched_d = {dj for _, dj in matches}
        unmatched_tracks = [i for i in range(len(self.tracks)) if i not in matched_t]
        unmatched_dets = [j for j in range(len(detections)) if j not in matched_d]
        return matches, unmatched_tracks, unmatched_dets
