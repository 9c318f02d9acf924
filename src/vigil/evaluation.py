"""Detection evaluation: PASCAL VOC-style mAP, precision and recall.

Matching is per frame and per class with single-use ground truths:
predictions are processed in descending confidence (ties: lower frame_id,
then input order) and claim their best-IoU unmatched ground truth when
that IoU reaches the threshold.  All pairs of a prediction and a ground
truth of its frame and class are scored in one element-wise IoU call, and
the greedy walks only the pairs that reach the threshold.  Each class's
average precision needs only
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
from .geometry import Detection, FrameDetections, FrameMeta, iou_elementwise


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

    Each detection is keyed by its frame's rank and its class's code.  The
    pairs that share a key are gathered with one stable argsort of the
    ground-truth keys and two searchsorted calls, ground truths of a key in
    input order, and all are scored in one :func:`iou_elementwise` call, in
    float64.  Only pairs whose IoU reaches the threshold stay candidates:
    the threshold is above 0, so a prediction whose best unmatched IoU is
    below it claims nothing, and among the candidates ``>`` still picks the
    first of equal bests.  Where the float64 IoU differs from the scalar
    iou (a -0.0 overlap for touching boxes, 0 for a nan from overflowing
    coordinates), neither value reaches the threshold.
    """
    cfg = cfg if cfg is not None else EvalConfig()
    preds, gts = EvalDetections.of(preds), EvalDetections.of(gts)
    n_pred = len(preds)
    # each frame's rank among the frame ids; ranks sort as the ids do
    ranks = np.unique(np.concatenate([preds.frame_ids, gts.frame_ids]), return_inverse=True)[1]
    codes: dict = {}
    code = np.array([codes.setdefault(label, len(codes))
                     for label in preds.labels + gts.labels], dtype=np.intp)
    keys = ranks * len(codes) + code
    pred_key, gt_key = keys[:n_pred], keys[n_pred:]

    # every (prediction, ground truth) pair of one key, grouped by
    # prediction: prediction pi's pairs are ends[pi] - counts[pi]:ends[pi],
    # and pos holds each pair's ground truth as a place in gt_order
    gt_order = np.argsort(gt_key, kind="stable")
    sorted_keys = gt_key[gt_order]
    lo = np.searchsorted(sorted_keys, pred_key, "left")
    counts = np.searchsorted(sorted_keys, pred_key, "right") - lo
    ends = np.cumsum(counts)
    pos = np.repeat(lo - (ends - counts), counts)
    pos += np.arange(pos.size)
    overlap = iou_elementwise(np.repeat(preds.boxes, counts, axis=0),
                              gts.boxes[gt_order][pos])
    keep = np.flatnonzero(overlap >= cfg.iou_threshold)
    # prediction pi's candidates are entries bounds[pi]:bounds[pi + 1]
    bounds = np.searchsorted(keep, np.concatenate(([0], ends))).tolist()
    cand_gt, cand_iou = gt_order[pos[keep]].tolist(), overlap[keep].tolist()
    n_gt: dict = {}
    for label in gts.labels:
        n_gt[label] = n_gt.get(label, 0) + 1

    # descending confidence, then frame id, then input order
    order = np.lexsort((np.arange(n_pred), ranks[:n_pred], -preds.confidences)).tolist()
    matched = [False] * len(gts)
    tp: list[bool] = []
    gt_index: list[int] = []
    for pi in order:
        best_gi, best_iou = -1, 0.0
        for j in range(bounds[pi], bounds[pi + 1]):
            gi = cand_gt[j]
            if not matched[gi] and cand_iou[j] > best_iou:
                best_gi, best_iou = gi, cand_iou[j]
        if best_gi >= 0:
            matched[best_gi] = True
        tp.append(best_gi >= 0)
        gt_index.append(best_gi)
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
    for flag, r, peak in zip(flags.tolist(), recall.tolist(), envelope.tolist()):
        if flag:
            ap += (r - prev_r) * peak
            prev_r = r
    return ap


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

