"""SORT-style multi-object tracker.

Each step predicts every live track one frame ahead with the constant
velocity Kalman model, associates predictions to detections by Hungarian
assignment on 1 - IoU cost (per class by default), then applies the
lifecycle rules: matched tracks are corrected and accumulate hits,
unmatched detections spawn Tentative tracks, and unmatched tracks age out.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .assignment import hungarian_assign
from .errors import ConfigError, DataError
from .geometry import BoundingBox, Detection, FrameMeta, iou_matrix
from .kalman import KalmanBoxFilter, predict_all, update_all


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


@dataclass
class Track:
    track_id: int
    class_label: str
    kalman: KalmanBoxFilter
    status: TrackStatus = TrackStatus.TENTATIVE
    hits: int = 0                 # consecutive matches since the last miss
    time_since_update: int = 0

    @property
    def bbox(self) -> BoundingBox:
        return self.kalman.bbox


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
        self._next_id = 1
        self._last_frame: int | None = None

    def step(self, frame: FrameMeta, detections: list[Detection]) -> list[Track]:
        """Advance one frame; returns the live Confirmed tracks."""
        if self._last_frame is not None and frame.frame_id <= self._last_frame:
            raise DataError(
                f"out-of-order frame_id {frame.frame_id} after {self._last_frame}")
        self._last_frame = frame.frame_id
        cfg = self.config

        predictions = predict_all([t.kalman for t in self.tracks])
        matches, unmatched_tracks, unmatched_dets = self._associate(
            predictions, detections)

        update_all([self.tracks[ti].kalman for ti, _ in matches],
                   [detections[di].bbox for _, di in matches])
        for ti, di in matches:
            t = self.tracks[ti]
            t.hits += 1
            t.time_since_update = 0
            if t.status is TrackStatus.TENTATIVE and t.hits >= cfg.min_hits:
                t.status = TrackStatus.CONFIRMED

        for ti in unmatched_tracks:
            t = self.tracks[ti]
            t.hits = 0
            t.time_since_update += 1
            if t.time_since_update >= cfg.max_age:
                t.status = TrackStatus.DELETED

        spawned: list[Track] = []
        for di in unmatched_dets:
            det = detections[di]
            if det.bbox.width <= 0.0 or det.bbox.height <= 0.0:
                continue  # degenerate boxes cannot seed a Kalman state
            t = Track(self._next_id, det.class_label, KalmanBoxFilter(det.bbox))
            self._next_id += 1
            spawned.append(t)

        self.tracks = [t for t in self.tracks
                       if t.status is not TrackStatus.DELETED] + spawned
        return [t for t in self.tracks if t.status is TrackStatus.CONFIRMED]

    # -- association ------------------------------------------------------

    def _associate(self, predictions: list[BoundingBox],
                   detections: list[Detection]):
        matches: list[tuple[int, int]] = []
        matched_t: set[int] = set()
        matched_d: set[int] = set()

        if predictions and detections:
            # IoU is computed pair by pair, so one matrix over every
            # prediction and detection serves all class groups
            overlap = iou_matrix(np.array([p.as_tuple() for p in predictions]),
                                 np.array([d.bbox.as_tuple() for d in detections]))
            if self.config.per_class:
                t_by_label: dict[str, list[int]] = {}
                for i, t in enumerate(self.tracks):
                    t_by_label.setdefault(t.class_label, []).append(i)
                d_by_label: dict[str, list[int]] = {}
                for j, d in enumerate(detections):
                    d_by_label.setdefault(d.class_label, []).append(j)
                for label in sorted(t_by_label.keys() & d_by_label.keys()):
                    t_idx, d_idx = t_by_label[label], d_by_label[label]
                    self._match_group(overlap.take(t_idx, 0).take(d_idx, 1),
                                      t_idx, d_idx, matches, matched_t, matched_d)
            else:
                self._match_group(overlap, list(range(len(self.tracks))),
                                  list(range(len(detections))),
                                  matches, matched_t, matched_d)

        unmatched_tracks = [i for i in range(len(self.tracks)) if i not in matched_t]
        unmatched_dets = [j for j in range(len(detections)) if j not in matched_d]
        return matches, unmatched_tracks, unmatched_dets

    def _match_group(self, overlap, t_idx, d_idx, matches, matched_t, matched_d):
        for r, c in hungarian_assign(1.0 - overlap):
            if overlap[r, c] >= self.config.iou_min:
                ti, dj = t_idx[r], d_idx[c]
                matches.append((ti, dj))
                matched_t.add(ti)
                matched_d.add(dj)
