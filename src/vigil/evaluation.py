"""Detection evaluation: PASCAL VOC-style mAP, precision and recall.

Matching is per frame and per class with single-use ground truths:
predictions are processed in descending confidence (ties: lower frame_id,
then input order) and claim their best-IoU unmatched ground truth when
that IoU reaches the threshold.  Each class's average precision needs only
its predictions' TP flags in that order.  It uses all-point interpolation
(the precision envelope), and classes with zero ground truths are excluded
from the mAP mean rather than scored zero; both choices are echoed in the
report for auditability.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, DataError
from .geometry import Detection, FrameDetections, FrameMeta, iou_matrix


@dataclass(frozen=True)
class EvalConfig:
    iou_threshold: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.iou_threshold < 1.0:
            raise ConfigError("iou_threshold must lie in (0, 1)")


@dataclass
class MatchResult:
    order: list[int]        # prediction input indices in processing order (conf desc)
    tp: list[bool]          # per processed prediction: did it match?
    gt_index: list[int]     # per processed prediction: ground truth it claimed, or -1
    gt_matched: list[bool]  # aligned with the ground-truth input
    n_gt: dict              # class -> ground-truth count


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
    order = np.lexsort((np.arange(n_pred), pred_rank, -preds.confidences)).tolist()
    labels, pred_rank = preds.labels, pred_rank.tolist()
    matched = [False] * len(gts)
    tp: list[bool] = []
    gt_index: list[int] = []
    for pi in order:
        best_gi, best_iou = -1, 0.0
        row = rows[pi]
        for col, gi in buckets.get((pred_rank[pi], labels[pi]), ()):
            if matched[gi]:
                continue
            overlap = row[col]
            if overlap > best_iou:
                best_gi, best_iou = gi, overlap
        is_tp = best_gi >= 0 and best_iou >= cfg.iou_threshold
        if is_tp:
            matched[best_gi] = True
        tp.append(is_tp)
        gt_index.append(best_gi if is_tp else -1)
    return MatchResult(order, tp, gt_index, matched, n_gt)


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


def evaluate_detections(preds: Sequence[Detection] | EvalDetections,
                        gts: Sequence[Detection] | EvalDetections,
                        cfg: EvalConfig | None = None) -> dict:
    """Full report: per-class AP, mAP, precision, recall, config echo."""
    cfg = cfg if cfg is not None else EvalConfig()
    preds = EvalDetections.of(preds)
    result = match(preds, gts, cfg)

    per_class_flags: dict = {}
    for pi, is_tp in zip(result.order, result.tp):  # already confidence-ordered
        per_class_flags.setdefault(preds.labels[pi], []).append(is_tp)

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
    n_tp, total_gt = sum(result.tp), sum(result.n_gt.values())
    return {
        "map": float(np.mean(defined)),
        "precision": n_tp / len(result.tp) if result.tp else 0.0,
        "recall": n_tp / total_gt if total_gt else 0.0,
        "per_class": per_class,
        "config": {
            "iou_threshold": cfg.iou_threshold,
            "interpolation": "all-point",
            "zero_gt_classes": "excluded from mAP",
        },
    }

