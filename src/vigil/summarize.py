"""Diverse-frame selection by budgeted submodular maximization.

A ground set of frames is described by L1-normalized signature vectors
(by default 8x8x8 RGB color histograms, d = 512).  Two monotone submodular
diversity models are provided -- facility location and saturated coverage
-- and maximized under a cardinality budget by naive or lazy greedy.
Both selectors return the same picks in the same order; lazy greedy just
skips gain evaluations that submodularity proves redundant.
"""

from __future__ import annotations

import csv
import heapq
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, open_input
from .images import read_image

SIGNATURE_DIM = 512                # 8 bins per RGB channel
DEFAULT_BUDGET = 500               # frames selected when no budget is given
SIM_TILE_BYTES = 2 << 20           # largest temporary similarity_matrix makes
SIM_PRECOMPUTE_BYTES = 512 << 20   # larger n x n matrices are not cached


def signature_from_image(img: np.ndarray) -> np.ndarray:
    """512-bin color histogram of an image, L1-normalized.

    Grayscale input is treated as R = G = B, landing on the diagonal bins.
    """
    img = np.asarray(img)
    if img.ndim == 2:
        img = np.stack([img, img, img], axis=-1)
    if img.ndim != 3 or img.shape[2] != 3:
        raise ValueError(f"expected (h, w) or (h, w, 3) image, got {img.shape}")
    flat = img.reshape(-1, 3).astype(np.int64) >> 5  # 256 values -> 8 bins
    bins = (flat[:, 0] << 6) + (flat[:, 1] << 3) + flat[:, 2]
    hist = np.bincount(bins, minlength=SIGNATURE_DIM).astype(float)
    return hist / hist.sum()


def _check_signature(vec: np.ndarray, where: str) -> np.ndarray:
    vec = np.asarray(vec, dtype=float)
    if vec.ndim != 1:
        raise DataError(f"{where}: signature must be a flat vector")
    if np.any(vec < 0) or not np.all(np.isfinite(vec)):
        raise DataError(f"{where}: signature components must be finite and >= 0")
    total = vec.sum()
    if total == 0.0:
        return vec  # all-zero frames keep a zero signature
    return vec / total


def similarity(a: np.ndarray, b: np.ndarray) -> float:
    """1 - 0.5 * L1 distance; equals histogram intersection on normalized input."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"signature dimensions differ: {a.shape} vs {b.shape}")
    return float(1.0 - 0.5 * np.abs(a - b).sum())


def similarity_matrix(signatures: np.ndarray) -> np.ndarray:
    """Pairwise similarity; beyond the n x n result it holds one small tile.

    Square tiles of t x t pairs are computed through one reused
    (t, t, d) difference buffer of at most SIM_TILE_BYTES (t >= 1, so a
    single pair may exceed it).  Only tiles on or above the diagonal are
    computed; each is mirrored into its lower counterpart.  The result
    equals 1 - 0.5 * |s_i - s_j|.sum() bit for bit: fl(a - b) = -fl(b - a),
    and each entry sums its own contiguous d-vector in numpy's pairwise
    order whatever the tile shape.
    """
    sig = np.asarray(signatures, dtype=float)
    n = sig.shape[0]
    out = np.empty((n, n))
    if n == 0:
        return out
    d = sig.shape[1]
    t = min(n, max(1, math.isqrt(SIM_TILE_BYTES // (8 * d))))
    buf = np.empty((t, t, d))
    for i0 in range(0, n, t):
        i1 = min(i0 + t, n)
        for j0 in range(i0, n, t):
            j1 = min(j0 + t, n)
            diff = buf[:i1 - i0, :j1 - j0]
            np.subtract(sig[i0:i1, None, :], sig[None, j0:j1, :], out=diff)
            np.abs(diff, out=diff)
            tile = out[i0:i1, j0:j1]
            diff.sum(axis=2, out=tile)
            tile *= -0.5
            tile += 1.0
            if j0 != i0:
                out[j0:j1, i0:i1] = tile.T
    return out


@dataclass
class GroundSet:
    """The candidate frames: one id and one signature per item."""

    item_ids: list[str]
    signatures: np.ndarray
    sampling_fps: float = 1.0

    def __post_init__(self):
        self.signatures = np.asarray(self.signatures, dtype=float)
        if self.signatures.ndim != 2 and len(self.item_ids) > 0:
            raise DataError("signatures must form an (n, d) matrix")
        if len(self.item_ids) != len(self.signatures):
            raise DataError("one signature required per item")

    def __len__(self) -> int:
        return len(self.item_ids)


def ground_set_from_images(directory, sampling_fps: float = 1.0) -> GroundSet:
    """Ground set from a directory of PPM/PGM frames, lexicographic order."""
    try:
        entries = os.listdir(directory)
    except OSError as exc:
        raise DataError(f"{directory}: {exc.strerror or exc}") from exc
    names = sorted(f for f in entries
                   if f.lower().endswith((".ppm", ".pgm")))
    if not names:
        raise DataError(f"{directory}: no .ppm/.pgm images found")
    sigs = [signature_from_image(read_image(os.path.join(directory, f)))
            for f in names]
    return GroundSet(names, np.array(sigs), sampling_fps)


def ground_set_from_csv(path, sampling_fps: float = 1.0) -> GroundSet:
    """Ground set from a signature file: item_id, then d values per row.

    Vectors are L1-normalized on load so precomputed features of any
    non-negative scale are accepted; all-zero rows stay zero.
    """
    ids: list[str] = []
    rows: list[np.ndarray] = []
    with open_input(path, "r", encoding="utf-8", newline="") as fh:
        for ln, row in enumerate(csv.reader(fh), start=1):
            if not row:
                continue
            if len(row) < 2:
                raise DataError(f"{path} row {ln}: need item_id and values")
            try:
                vec = np.array([float(x) for x in row[1:]])
            except ValueError as exc:
                raise DataError(f"{path} row {ln}: {exc}") from exc
            vec = _check_signature(vec, f"{path} row {ln}")
            if rows and vec.shape != rows[0].shape:
                raise DataError(f"{path} row {ln}: inconsistent dimension")
            ids.append(row[0])
            rows.append(vec)
    sigs = np.array(rows) if rows else np.zeros((0, SIGNATURE_DIM))
    return GroundSet(ids, sigs, sampling_fps)


# ---------------------------------------------------------------------------
# diversity models


class _SimilarityModel:
    """Shared plumbing: similarity-row access with optional precompute.

    Construct from an explicit similarity matrix, or from signatures (rows
    are then derived; cached as a full matrix while its n * n * 8 bytes
    stay within SIM_PRECOMPUTE_BYTES, else computed on demand).  gain_evals
    counts marginal-gain evaluations.
    """

    kind = "?"

    def __init__(self, matrix=None, *, signatures=None):
        if (matrix is None) == (signatures is None):
            raise ValueError("provide exactly one of matrix or signatures")
        self._sig = None
        if matrix is not None:
            m = np.asarray(matrix, dtype=float)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValueError("similarity matrix must be square")
            self._S = m
            self.n = m.shape[0]
        else:
            sig = np.asarray(signatures, dtype=float)
            self.n = sig.shape[0]
            if 8 * self.n * self.n <= SIM_PRECOMPUTE_BYTES:
                self._S = similarity_matrix(sig)
            else:
                self._S = None
                self._sig = sig
        self.gain_evals = 0

    def _row(self, j: int) -> np.ndarray:
        if self._S is not None:
            return self._S[j]
        return 1.0 - 0.5 * np.abs(self._sig - self._sig[j]).sum(axis=1)

    def _check_subset(self, X) -> list[int]:
        idx = [int(j) for j in X]
        for j in idx:
            if not 0 <= j < self.n:
                raise ValueError(f"item {j} outside the ground set (n={self.n})")
        return idx


class FacilityLocation(_SimilarityModel):
    """f(X) = sum over v of max over x in X of sim(v, x)."""

    kind = "FacilityLocation"

    def evaluate(self, X) -> float:
        idx = self._check_subset(X)
        if not idx:
            return 0.0
        best = np.zeros(self.n)
        for j in set(idx):
            np.maximum(best, self._row(j), out=best)
        return float(best.sum())

    def new_state(self) -> np.ndarray:
        return np.zeros(self.n)  # best similarity reached so far, per item

    def gain(self, state: np.ndarray, j: int) -> float:
        self.gain_evals += 1
        return float(np.maximum(self._row(j) - state, 0.0).sum())

    def add(self, state: np.ndarray, j: int) -> None:
        np.maximum(state, self._row(j), out=state)


class SaturatedCoverage(_SimilarityModel):
    """f(X) = sum over v of min(sum over x in X of sim(v, x), alpha * total_v)."""

    kind = "SaturatedCoverage"

    def __init__(self, matrix=None, *, signatures=None, alpha: float = 0.5):
        if not 0.0 < alpha <= 1.0:
            raise ConfigError("alpha must lie in (0, 1]")
        super().__init__(matrix, signatures=signatures)
        self.alpha = alpha
        totals = np.array([self._row(v).sum() for v in range(self.n)]) \
            if self._S is None else self._S.sum(axis=1)
        self._cap = alpha * totals

    def evaluate(self, X) -> float:
        idx = self._check_subset(X)
        if not idx:
            return 0.0
        covered = np.zeros(self.n)
        for j in set(idx):
            covered += self._row(j)
        return float(np.minimum(covered, self._cap).sum())

    def new_state(self) -> np.ndarray:
        return np.zeros(self.n)  # accumulated coverage per item

    def gain(self, state: np.ndarray, j: int) -> float:
        self.gain_evals += 1
        after = np.minimum(state + self._row(j), self._cap)
        return float((after - np.minimum(state, self._cap)).sum())

    def add(self, state: np.ndarray, j: int) -> None:
        state += self._row(j)


MODEL_KINDS = {
    "facility-location": FacilityLocation,
    "saturated-coverage": SaturatedCoverage,
}


def build_model(kind: str, ground: GroundSet, alpha: float = 0.5):
    """The model named *kind*, a key of MODEL_KINDS, over *ground*."""
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown diversity model {kind!r}; "
                         f"expected one of {sorted(MODEL_KINDS)}")
    if kind == "saturated-coverage":
        return SaturatedCoverage(signatures=ground.signatures, alpha=alpha)
    return FacilityLocation(signatures=ground.signatures)


# ---------------------------------------------------------------------------
# greedy maximization


@dataclass(frozen=True)
class SelectionStep:
    rank: int          # 1-based pick order
    item: int          # ground-set index
    gain: float        # marginal gain at pick time
    cumulative: float  # running objective value


def greedy_trace(model, budget: int) -> list[SelectionStep]:
    """Naive greedy: re-evaluate every candidate each round, ties to lowest index."""
    if budget < 0:
        raise ValueError("budget must be >= 0")
    k = min(budget, model.n)
    state = model.new_state()
    selected = np.zeros(model.n, dtype=bool)
    steps: list[SelectionStep] = []
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


def lazy_greedy_trace(model, budget: int) -> list[SelectionStep]:
    """Lazy greedy: a max-heap of possibly stale gains, revalidated on pop.

    Valid because submodular gains only shrink as the selection grows; a
    fresh entry at the top of the heap is therefore the true argmax.  Heap
    keys are (-gain, item), so equal gains resolve to the lowest index,
    matching greedy_trace exactly.
    """
    if budget < 0:
        raise ValueError("budget must be >= 0")
    k = min(budget, model.n)
    state = model.new_state()
    steps: list[SelectionStep] = []
    if k == 0:
        return steps
    # entries are (-gain, item, stamp); stamp = selection count when the
    # gain was computed, so an entry is fresh iff stamp == len(steps)
    heap = [(-model.gain(state, j), j, 0) for j in range(model.n)]
    heapq.heapify(heap)
    total = 0.0
    while len(steps) < k:
        neg_gain, j, stamp = heapq.heappop(heap)
        if stamp == len(steps):
            gain = -neg_gain
            model.add(state, j)
            total += gain
            steps.append(SelectionStep(len(steps) + 1, j, gain, total))
        else:
            heapq.heappush(heap, (-model.gain(state, j), j, len(steps)))
    return steps


def greedy_select(model, budget: int = DEFAULT_BUDGET) -> list[int]:
    """Budgeted greedy selection; returns item indices in pick order."""
    return [s.item for s in greedy_trace(model, budget)]


def lazy_greedy_select(model, budget: int = DEFAULT_BUDGET) -> list[int]:
    """Same picks as greedy_select, via the lazy heap."""
    return [s.item for s in lazy_greedy_trace(model, budget)]


def write_signature_csv(path, ground: GroundSet) -> None:
    """Write signatures as headerless rows: item_id, then the vector values.

    Round-trips through ground_set_from_csv (vectors are already normalized).
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        for item_id, vec in zip(ground.item_ids, ground.signatures):
            w.writerow([item_id] + [repr(float(v)) for v in vec])


def write_selection_csv(path, ground: GroundSet, steps: list[SelectionStep]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["rank", "item_id", "marginal_gain", "cumulative_f"])
        for s in steps:
            w.writerow([s.rank, ground.item_ids[s.item],
                        repr(s.gain), repr(s.cumulative)])
