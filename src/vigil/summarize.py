"""Diverse-frame selection by budgeted submodular maximization.

A ground set of frames is described by L1-normalized signature vectors
(by default 8x8x8 RGB color histograms, d = 512).  Two monotone submodular
diversity models are provided -- facility location and saturated coverage
-- and maximized under a cardinality budget by lazy greedy (Minoux 1978),
which skips gain evaluations that submodularity proves redundant; see
lazy_greedy_trace for when its picks equal naive greedy's.
"""

from __future__ import annotations

import heapq
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, read_numeric_csv, write_csv
from .images import read_image

SIGNATURE_DIM = 512                # 8 bins per RGB channel
DEFAULT_BUDGET = 500               # frames selected when no budget is given
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


def _similarity_row(sig: np.ndarray, j: int, out: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """Write 1 - 0.5 * |sig - sig[j]|.sum(axis=1) into *out* and return it.

    *buf* is a C-ordered (len(sig), d) scratch buffer, so each entry sums
    its own contiguous d-vector in numpy's pairwise order.
    """
    np.subtract(sig, sig[j], out=buf)
    np.abs(buf, out=buf)
    buf.sum(axis=1, out=out)
    out *= -0.5
    out += 1.0
    return out


def similarity_matrix(signatures: np.ndarray) -> np.ndarray:
    """Pairwise similarity; beyond the n x n result it holds one buffer the
    size of the signatures.

    Row i is computed from item i on (_similarity_row) and mirrored into
    column i.  The result equals 1 - 0.5 * |s_i - s_j|.sum() bit for bit,
    and each row equals an on-demand row: fl(a - b) = -fl(b - a).
    """
    sig = np.asarray(signatures, dtype=float)
    n = sig.shape[0]
    out = np.empty((n, n))
    buf = np.empty(sig.shape)
    for i in range(n):
        row = _similarity_row(sig[i:], 0, out[i, i:], buf[:n - i])
        out[i + 1:, i] = row[1:]
    return out


@dataclass
class GroundSet:
    """The candidate frames: one id and one signature per item."""

    item_ids: list[str]
    signatures: np.ndarray

    def __post_init__(self):
        self.signatures = np.asarray(self.signatures, dtype=float)
        if self.signatures.ndim != 2 and len(self.item_ids) > 0:
            raise DataError("signatures must form an (n, d) matrix")
        if len(self.item_ids) != len(self.signatures):
            raise DataError("one signature required per item")

    def __len__(self) -> int:
        return len(self.item_ids)


def ground_set_from_images(directory) -> GroundSet:
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
    return GroundSet(names, np.array(sigs))


def ground_set_from_csv(path) -> GroundSet:
    """Ground set from a signature file: item_id, then d values per row.

    Vectors are L1-normalized on load so precomputed features of any
    non-negative scale are accepted; all-zero rows stay zero.
    """
    (ids,), sigs, line_nos = read_numeric_csv(path, 1, "need item_id and values")
    if not ids:
        return GroundSet(ids, np.zeros((0, SIGNATURE_DIM)))
    bad = np.flatnonzero(~(np.isfinite(sigs) & (sigs >= 0)).all(axis=1))
    if bad.size:
        raise DataError(f"{path} row {line_nos[bad[0]]}: "
                        "signature components must be finite and >= 0")
    totals = sigs.sum(axis=1, keepdims=True)
    np.divide(sigs, totals, out=sigs, where=totals != 0.0)
    return GroundSet(ids, sigs)


# ---------------------------------------------------------------------------
# diversity models


class _SimilarityModel:
    """Shared plumbing: similarity-row access with optional precompute.

    Construct from an explicit similarity matrix, or from signatures (rows
    are then derived; cached as a full matrix while its n * n * 8 bytes
    stay within SIM_PRECOMPUTE_BYTES, else computed on demand through one
    scratch buffer the size of the signatures).  gain_evals counts
    marginal-gain evaluations.
    """

    def __init__(self, matrix=None, *, signatures=None):
        if (matrix is None) == (signatures is None):
            raise ValueError("provide exactly one of matrix or signatures")
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
                self._buf = np.empty(sig.shape)
        self.gain_evals = 0

    def _row(self, j: int) -> np.ndarray:
        if self._S is not None:
            return self._S[j]
        return _similarity_row(self._sig, j, np.empty(self.n), self._buf)


class FacilityLocation(_SimilarityModel):
    """f(X) = sum over v of max over x in X of sim(v, x)."""

    def new_state(self) -> np.ndarray:
        return np.zeros(self.n)  # best similarity reached so far, per item

    def gain(self, state: np.ndarray, j: int) -> float:
        self.gain_evals += 1
        return float(np.maximum(self._row(j) - state, 0.0).sum())

    def add(self, state: np.ndarray, j: int) -> None:
        np.maximum(state, self._row(j), out=state)


class SaturatedCoverage(_SimilarityModel):
    """f(X) = sum over v of min(sum over x in X of sim(v, x), alpha * total_v)."""

    def __init__(self, matrix=None, *, signatures=None, alpha: float = 0.5):
        if not 0.0 < alpha <= 1.0:
            raise ConfigError("alpha must lie in (0, 1]")
        super().__init__(matrix, signatures=signatures)
        self._cap = alpha * np.array([self._row(v).sum() for v in range(self.n)])

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


def lazy_greedy_trace(model, budget: int) -> list[SelectionStep]:
    """Lazy greedy: a max-heap of possibly stale gains, revalidated on pop.

    Heap keys are (-gain, item).  A fresh entry on top is the argmax while
    no computed gain grows as the selection grows.  Facility location's
    terms max(row - state, 0) never grow, and rounding keeps their order,
    so its picks and gains equal naive greedy's (ties to the lowest index)
    bit for bit.  Saturated coverage's min(state + row, cap) - min(state,
    cap) can grow by rounding; where two of its gains tie, lazy greedy may
    pick an item other than the lowest index.
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


def write_signature_csv(path, ground: GroundSet) -> None:
    """Write signatures as headerless rows: item_id, then the vector values.

    Round-trips through ground_set_from_csv (vectors are already normalized).
    """
    write_csv(path, ([item_id, *vec]
                     for item_id, vec in zip(ground.item_ids, ground.signatures.tolist())))


def write_selection_csv(path, ground: GroundSet, steps: list[SelectionStep]) -> None:
    write_csv(path, [["rank", "item_id", "marginal_gain", "cumulative_f"],
                     *([s.rank, ground.item_ids[s.item], s.gain, s.cumulative]
                       for s in steps)])
