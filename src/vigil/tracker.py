"""SORT-style multi-object tracker.

Each step predicts every live track one frame ahead with the constant
velocity Kalman model, associates predictions to detections by Hungarian
assignment on 1 - IoU cost (per class by default), then applies the
lifecycle rules: matched tracks are corrected and accumulate hits,
unmatched detections spawn Tentative tracks, and unmatched tracks age out.

The tracker owns the Kalman state of all its tracks as two stacks, row i
belonging to tracks[i].  A step makes one predict over all rows, one
update over the matched rows and one compaction that drops the deleted
rows, and computes all boxes at once: the predictions for association,
then each live track's end-of-step box.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .assignment import hungarian_assign
from .errors import ConfigError, DataError
from .geometry import BoundingBox, Detection, FrameMeta, iou_matrix
from .kalman import DEFAULT_P0, DEFAULT_Q, DEFAULT_R, corners, measurement, predict, update


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
    """A track's identity, lifecycle and box; its Kalman state is a row of
    the owning tracker's stacks."""

    __slots__ = ("track_id", "class_label", "status", "hits", "misses", "_bbox")

    def __init__(self, track_id: int, class_label: str, bbox: BoundingBox | None = None):
        self.track_id = track_id
        self.class_label = class_label
        self.status = TrackStatus.TENTATIVE
        self.hits = 0                 # consecutive matches since the last miss
        self.misses = 0               # consecutive misses since the last match
        self._bbox = bbox

    @property
    def bbox(self) -> BoundingBox:
        """The box of the track's state at the end of the last step."""
        return self._bbox


def track_record(frame: FrameMeta, track: Track) -> dict:
    """One JSONL output row for a track at a frame (fixed key order)."""
    box = track.bbox
    return {
        "frame": frame.frame_id,
        "track_id": track.track_id,
        "class": track.class_label,
        "x1": box.x1,
        "y1": box.y1,
        "x2": box.x2,
        "y2": box.y2,
        "status": track.status.value,
    }


class SortTracker:
    """Per-source tracker state machine; calls to step must be sequential."""

    def __init__(self, config: TrackerConfig | None = None):
        self.config = config if config is not None else TrackerConfig()
        self.tracks: list[Track] = []
        self._x = np.zeros((0, 7))      # Kalman states, row i for tracks[i]
        self._P = np.zeros((0, 7, 7))   # their covariances
        self._next_id = 1
        self._last_frame: int | None = None

    def step(self, frame: FrameMeta, detections: list[Detection]) -> list[Track]:
        """Advance one frame; returns the live Confirmed tracks."""
        if self._last_frame is not None and frame.frame_id <= self._last_frame:
            raise DataError(
                f"out-of-order frame_id {frame.frame_id} after {self._last_frame}")
        self._last_frame = frame.frame_id
        cfg = self.config
        tracks = self.tracks

        self._P = predict(self._x, self._P, DEFAULT_Q)
        matches, unmatched_tracks, unmatched_dets = self._associate(
            corners(self._x), detections)

        rows = [ti for ti, _ in matches]
        if rows:
            x = self._x[rows]
            z = np.array([measurement(detections[di].bbox) for _, di in matches])
            self._P[rows] = update(x, self._P[rows], z, DEFAULT_R)
            self._x[rows] = x
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
            self._x = self._x[live]
            self._P = self._P[live]

        # degenerate boxes cannot seed a Kalman state
        seeds = [detections[di] for di in unmatched_dets
                 if detections[di].bbox.width > 0.0 and detections[di].bbox.height > 0.0]
        if seeds:
            x0 = np.zeros((len(seeds), 7))
            x0[:, :4] = [measurement(det.bbox) for det in seeds]
            self._x = np.concatenate([self._x, x0])
            self._P = np.concatenate(
                [self._P, np.broadcast_to(DEFAULT_P0, (len(seeds), 7, 7))])
            for det in seeds:
                tracks.append(Track(self._next_id, det.class_label))
                self._next_id += 1

        for t, box in zip(tracks, corners(self._x).tolist()):
            t._bbox = BoundingBox(*box)
        self.tracks = tracks
        return [t for t in tracks if t.status is TrackStatus.CONFIRMED]

    # -- association ------------------------------------------------------

    def _associate(self, predictions: np.ndarray, detections: list[Detection]):
        matches: list[tuple[int, int]] = []
        if len(predictions) and detections:
            # IoU is computed pair by pair, so one matrix over every prediction
            # and detection serves all groups (one group, None, if not per_class)
            overlap = iou_matrix(predictions,
                                 np.array([d.bbox.as_tuple() for d in detections]))
            per_class = self.config.per_class
            t_groups: dict = {}
            for i, t in enumerate(self.tracks):
                t_groups.setdefault(t.class_label if per_class else None, []).append(i)
            d_groups: dict = {}
            for j, d in enumerate(detections):
                d_groups.setdefault(d.class_label if per_class else None, []).append(j)
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
