"""Detection and tracking evaluation: PASCAL-style mAP, precision/recall,
and ID-switch counting.

Matching is per frame and per class with single-use ground truths:
predictions are processed in descending confidence (ties: lower frame_id,
then input order) and claim their best-IoU unmatched ground truth when
that IoU reaches the threshold.  Average precision uses all-point
interpolation (the precision envelope), and classes with zero ground
truths are excluded from the mAP mean rather than scored zero; both
choices are echoed in the report for auditability.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, DataError
from .geometry import Detection, FrameDetections, FrameMeta, iou, iou_matrix


@dataclass(frozen=True)
class EvalConfig:
    iou_threshold: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.iou_threshold < 1.0:
            raise ConfigError("iou_threshold must lie in (0, 1)")


@dataclass(frozen=True)
class PredictionOutcome:
    """One prediction's fate after matching."""

    input_index: int
    frame_id: int
    class_label: str
    confidence: float
    tp: bool
    gt_index: Optional[int]  # index into the ground-truth input list


@dataclass
class MatchResult:
    outcomes: list[PredictionOutcome]  # in processing order (conf desc)
    gt_matched: list[bool]             # aligned with the ground-truth input
    n_gt: dict                         # class -> ground-truth count


class EvalDetections:
    """Detections of many frames as flat arrays, row i holding the i-th:
    ``frame_ids`` (n,) integers, corner rows ``boxes`` (n, 4) float64,
    ``labels`` (a list of n class labels) and ``confidences`` (n,) float64.

    ``len()`` is the detection count.  :meth:`of` converts a Detection
    list; :meth:`of_frames` joins ``read_dump``'s frame batches.
    """

    __slots__ = ("frame_ids", "boxes", "labels", "confidences")

    def __init__(self, frame_ids: np.ndarray, boxes: np.ndarray, labels: list[str],
                 confidences: np.ndarray):
        self.frame_ids = frame_ids
        self.boxes = boxes
        self.labels = labels
        self.confidences = confidences

    @classmethod
    def of(cls, detections: Sequence[Detection] | EvalDetections) -> EvalDetections:
        """The table of a Detection list, in list order (a table as it is)."""
        if isinstance(detections, EvalDetections):
            return detections
        batch = FrameDetections.of(detections)
        return cls(_frame_id_array([d.frame.frame_id for d in detections]),
                   batch.boxes, batch.labels, batch.confidences)

    @classmethod
    def of_frames(cls, frames: Iterable[tuple[FrameMeta, FrameDetections]]) -> EvalDetections:
        """The table of (FrameMeta, FrameDetections) pairs, in stream order."""
        ids, batches = [], []
        for meta, batch in frames:
            ids.append(meta.frame_id)
            batches.append(batch)
        if not batches:
            return cls.of([])
        return cls(np.repeat(_frame_id_array(ids), [len(b) for b in batches]),
                   np.concatenate([b.boxes for b in batches]),
                   [label for b in batches for label in b.labels],
                   np.concatenate([b.confidences for b in batches]))

    def __len__(self) -> int:
        return len(self.labels)


def _frame_id_array(ids: list[int]) -> np.ndarray:
    # an id past int64 makes an object array, which np.unique still orders
    return np.array(ids) if ids else np.zeros(0, dtype=np.int64)


def match(preds: Sequence[Detection] | EvalDetections,
          gts: Sequence[Detection] | EvalDetections,
          cfg: EvalConfig | None = None) -> MatchResult:
    """Greedy matching (module docstring) of *preds* against *gts*.

    Each frame's predictions are scored against its ground truths in one
    iou_matrix, in float64.  Where that differs from the scalar iou (a
    -0.0 overlap for touching boxes, 0 for a nan from overflowing
    coordinates), neither value beats the running best with ``>``.
    """
    cfg = cfg if cfg is not None else EvalConfig()
    preds, gts = EvalDetections.of(preds), EvalDetections.of(gts)
    n_pred = len(preds)
    # each frame's rank among the frame ids; ranks sort as the ids do
    ranks = np.unique(np.concatenate([preds.frame_ids, gts.frame_ids]), return_inverse=True)[1]
    pred_rank, gt_rank = ranks[:n_pred], ranks[n_pred:]
    n_frames = int(ranks.max()) + 1 if ranks.size else 0

    def by_frame(rank):
        """Input indices per frame rank, in input order."""
        order = np.argsort(rank, kind="stable")
        return np.split(order, np.cumsum(np.bincount(rank, minlength=n_frames))[:-1])

    rows: list = [None] * n_pred  # prediction -> IoUs with its frame's ground truths
    buckets: dict = {}  # (frame rank, class) -> [(column in rows, gt input index)]
    for f, (p_idx, g_idx) in enumerate(zip(by_frame(pred_rank), by_frame(gt_rank))):
        if not g_idx.size:
            continue
        for col, gi in enumerate(g_idx.tolist()):
            buckets.setdefault((f, gts.labels[gi]), []).append((col, gi))
        if p_idx.size:
            for pi, row in zip(p_idx.tolist(),
                               iou_matrix(preds.boxes[p_idx], gts.boxes[g_idx]).tolist()):
                rows[pi] = row
    n_gt: dict = {}
    for label in gts.labels:
        n_gt[label] = n_gt.get(label, 0) + 1

    # descending confidence, then frame id, then input order
    order = np.lexsort((np.arange(n_pred), pred_rank, -preds.confidences))
    frame_ids, labels = preds.frame_ids.tolist(), preds.labels
    confidences, pred_rank = preds.confidences.tolist(), pred_rank.tolist()
    matched = [False] * len(gts)
    outcomes: list[PredictionOutcome] = []
    for pi in order.tolist():
        best_gi, best_iou = None, 0.0
        row = rows[pi]
        for col, gi in buckets.get((pred_rank[pi], labels[pi]), ()):
            if matched[gi]:
                continue
            overlap = row[col]
            if overlap > best_iou:
                best_gi, best_iou = gi, overlap
        is_tp = best_gi is not None and best_iou >= cfg.iou_threshold
        if is_tp:
            matched[best_gi] = True
        outcomes.append(PredictionOutcome(
            pi, frame_ids[pi], labels[pi], confidences[pi],
            is_tp, best_gi if is_tp else None))
    return MatchResult(outcomes, matched, n_gt)


def average_precision(tp_flags, n_gt: int) -> Optional[float]:
    """All-point interpolated AP from confidence-ordered TP flags.

    Returns None (undefined) when the class has no ground truth.
    """
    if n_gt <= 0:
        return None
    flags = np.asarray(tp_flags, dtype=bool)
    if flags.size == 0:
        return 0.0
    cum_tp = np.cumsum(flags)
    cum_fp = np.cumsum(~flags)
    recall = cum_tp / n_gt
    precision = cum_tp / (cum_tp + cum_fp)
    # envelope: best precision at any recall >= r
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    prev_r = 0.0
    ap = 0.0
    for i in range(flags.size):
        if flags[i]:
            ap += (recall[i] - prev_r) * envelope[i]
            prev_r = recall[i]
    return float(ap)


def precision_recall(result: MatchResult) -> tuple[float, float]:
    tp = sum(1 for o in result.outcomes if o.tp)
    fp = len(result.outcomes) - tp
    total_gt = sum(result.n_gt.values())
    precision = tp / (tp + fp) if (tp + fp) else 0.0
    recall = tp / total_gt if total_gt else 0.0
    return precision, recall


def evaluate_detections(preds: Sequence[Detection] | EvalDetections,
                        gts: Sequence[Detection] | EvalDetections,
                        cfg: EvalConfig | None = None) -> dict:
    """Full report: per-class AP, mAP, precision, recall, config echo."""
    cfg = cfg if cfg is not None else EvalConfig()
    result = match(preds, gts, cfg)

    per_class_flags: dict = {}
    for o in result.outcomes:  # already confidence-ordered
        per_class_flags.setdefault(o.class_label, []).append(o.tp)

    labels = sorted(set(per_class_flags) | set(result.n_gt))
    per_class = {}
    defined = []
    for label in labels:
        flags = per_class_flags.get(label, [])
        n = result.n_gt.get(label, 0)
        ap = average_precision(flags, n)
        if ap is not None:
            defined.append(ap)
        per_class[label] = {
            "ap": ap,
            "tp": int(sum(flags)),
            "fp": int(len(flags) - sum(flags)),
            "n_gt": n,
        }
    if not defined:
        raise DataError("no class has ground truth; mAP undefined")
    precision, recall = precision_recall(result)
    return {
        "map": float(np.mean(defined)),
        "precision": precision,
        "recall": recall,
        "per_class": per_class,
        "config": {
            "iou_threshold": cfg.iou_threshold,
            "interpolation": "all-point",
            "zero_gt_classes": "excluded from mAP",
        },
    }


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
                overlap = iou(box, gt_box)
                if overlap > best:
                    best_tid, best = tid, overlap
            if best_tid is None or best < iou_min:
                continue
            if identity in last and last[identity] != best_tid:
                switches += 1
            last[identity] = best_tid
    return switches
