"""Constant-velocity Kalman filter over box observations.

State is x = [u, v, s, r, du, dv, ds]: box center (u, v), area s, aspect
ratio r = width / height, plus per-frame velocities of the first three.
Aspect ratio is modeled as constant.  Measurements are z = [u, v, s, r]
with H = [I4 | 0].
"""

from __future__ import annotations

import math

import numpy as np
from numpy.linalg import LinAlgError
from numpy.linalg import _umath_linalg

from .geometry import BoundingBox

# dt = 1 frame: u += du, v += dv, s += ds, r unchanged.
_F = np.eye(7)
_F[0, 4] = _F[1, 5] = _F[2, 6] = 1.0
_FT = _F.T

DEFAULT_Q = np.diag([1e-2, 1e-2, 1e-2, 1e-4, 1e-2, 1e-2, 1e-4])
DEFAULT_R = np.diag([1.0, 1.0, 10.0, 10.0])
# Velocities start unobserved, hence the large tail diagonal.
DEFAULT_P0 = np.diag([10.0, 10.0, 10.0, 10.0, 1e3, 1e3, 1e3])

_SIZE_FLOOR = 1e-4  # lower clamp for area and aspect ratio


def _raise_singular(err, flag):
    raise LinAlgError("Singular matrix")


@np.errstate(call=_raise_singular, invalid="call",
             over="ignore", divide="ignore", under="ignore")
def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.linalg.solve(a, b)`` for float64 matrices a (..., n, n), b (..., n, k).

    Calls the same LAPACK gufunc with the same error handling, so the
    result is bit for bit the same, minus the argument normalisation that
    dominates the call at 4 x 4.
    """
    return _umath_linalg.solve(a, b, signature="dd->d")


def bbox_to_z(box: BoundingBox) -> np.ndarray:
    """Corner-format box -> measurement vector [u, v, s, r]."""
    return np.array(_measurement(box))


def _measurement(box: BoundingBox) -> tuple[float, float, float, float]:
    w = box.x2 - box.x1
    h = box.y2 - box.y1
    if w <= 0.0 or h <= 0.0:
        raise ValueError(f"box must have positive area: {box.as_tuple()}")
    return (box.x1 + 0.5 * w, box.y1 + 0.5 * h, w * h, w / h)


def z_to_bbox(z) -> BoundingBox:
    """Inverse of bbox_to_z: w = sqrt(s * r), h = s / w."""
    return _box(*np.asarray(z, dtype=float)[:4].tolist())


def _box(u: float, v: float, s: float, r: float) -> BoundingBox:
    w = math.sqrt(max(s * r, 0.0))
    if w <= 0.0:
        raise ValueError(f"non-positive size in state: s={s}, r={r}")
    h = s / w
    return BoundingBox(u - 0.5 * w, v - 0.5 * h, u + 0.5 * w, v + 0.5 * h)


class KalmanBoxFilter:
    """Tracks one box through time.

    predict() advances the state one frame and returns the predicted box;
    update() folds in a measured box.  covariance stays symmetric because
    every update re-symmetrizes it explicitly.  predict_all / update_all
    do the same for many filters at once.
    """

    __slots__ = ("x", "P", "Q", "R")

    def __init__(self, box: BoundingBox, q=None, r=None, p0=None):
        self.x = np.zeros(7)
        self.x[:4] = bbox_to_z(box)
        self.Q = DEFAULT_Q.copy() if q is None else np.asarray(q, dtype=float).copy()
        self.R = DEFAULT_R.copy() if r is None else np.asarray(r, dtype=float).copy()
        self.P = DEFAULT_P0.copy() if p0 is None else np.asarray(p0, dtype=float).copy()

    def predict(self) -> BoundingBox:
        return predict_all([self])[0]

    def update(self, box: BoundingBox) -> None:
        update_all([self], [box])

    @property
    def bbox(self) -> BoundingBox:
        return z_to_bbox(self.x)


# The filters of a tracker step together, so their states are stacked and
# each step below is one numpy call for all of them rather than one per
# filter.  numpy applies element-wise steps per element and matrix steps
# (product, solve) per stacked matrix with the same BLAS / LAPACK call a
# lone matrix gets, so a filter's result does not depend on which others
# it is stacked with.  Filters must be distinct.


def predict_all(filters: list[KalmanBoxFilter]) -> list[BoundingBox]:
    """Advance each filter one frame; returns the predicted boxes."""
    if not filters:
        return []
    x = np.array([f.x for f in filters])
    x[:, :3] += x[:, 4:]
    pinned = x[:, 2] <= 0.0
    if pinned.any():
        # area drifted non-positive: pin it and stop shrinking
        x[pinned, 2] = _SIZE_FLOOR
        x[pinned, 6] = 0.0
    P = _F @ np.array([f.P for f in filters]) @ _FT + np.array([f.Q for f in filters])
    _store(filters, x, P)
    return [_box(*z) for z in x[:, :4].tolist()]


def update_all(filters: list[KalmanBoxFilter], boxes: list[BoundingBox]) -> None:
    """Fold boxes[i] into filters[i] for every i."""
    if not filters:
        return
    z = np.array([_measurement(box) for box in boxes])
    x = np.array([f.x for f in filters])
    P = np.array([f.P for f in filters])
    innovation = z - x[:, :4]
    S = P[:, :4, :4] + np.array([f.R for f in filters])
    # K = P Ht S^-1; with H = [I4|0], P Ht is the first four columns of P
    K = _solve(S, P[:, :, :4].transpose(0, 2, 1)).transpose(0, 2, 1)
    x += (K @ innovation[:, :, None])[:, :, 0]
    P = P - K @ P[:, :4, :]
    P = (P + P.transpose(0, 2, 1)) * 0.5
    np.maximum(x[:, 2:4], _SIZE_FLOOR, out=x[:, 2:4])  # area, aspect >= floor
    _store(filters, x, P)


def _store(filters, x: np.ndarray, P: np.ndarray) -> None:
    for f, x_new, P_new in zip(filters, x, P):
        f.x[:] = x_new  # in place: the state vector keeps its identity
        f.P = P_new
