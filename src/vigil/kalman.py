"""Constant-velocity Kalman filter over box observations.

State is x = [u, v, s, r, du, dv, ds]: box center (u, v), area s, aspect
ratio r = width / height, plus per-frame velocities of the first three.
Aspect ratio is modeled as constant.  Measurements are z = [u, v, s, r]
with H = [I4 | 0].
"""

from __future__ import annotations

import numpy as np

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


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def measurement(boxes: np.ndarray) -> np.ndarray:
    """Corner rows [x1, y1, x2, y2] (n, 4) -> measurement rows [u, v, s, r].

    Each row is w = x2 - x1, h = y2 - y1, then [x1 + 0.5 * w, y1 + 0.5 * h,
    w * h, w / h]: the operations, in their order, of the same formula on
    Python floats, so bit for bit its result (see corners).  A row of zero
    width or height, where that formula divides by zero, gets inf or nan
    without a warning; callers use only rows of positive area.
    """
    corner = boxes[:, :2]
    size = boxes[:, 2:] - corner  # w, h
    w, h = size[:, 0], size[:, 1]
    z = np.empty((len(boxes), 4))
    z[:, :2] = corner + 0.5 * size
    z[:, 2] = w * h
    z[:, 3] = w / h
    return z


@np.errstate(over="ignore", invalid="ignore")
def corners(x: np.ndarray) -> np.ndarray:
    """Corner rows [x1, y1, x2, y2] (n, 4) of stacked states x (n, >= 4),
    the inverse of measurement: w = sqrt(s * r), h = s / w.

    numpy's element-wise sqrt, *, / and +/- round exactly as Python's float
    operations do, so each row is bit for bit the box that the same formula
    gives on Python floats, which overflow to inf and nan without a warning.
    """
    s, r = x[:, 2], x[:, 3]
    w = np.sqrt(np.maximum(s * r, 0.0))
    if (w <= 0.0).any():
        i = np.flatnonzero(w <= 0.0)[0]
        raise ValueError(f"non-positive size in state: s={s[i].item()}, r={r[i].item()}")
    half = np.empty((len(x), 2))  # [0.5 * w, 0.5 * h]
    half[:, 0] = w
    half[:, 1] = s / w
    half *= 0.5
    center = x[:, :2]  # u, v
    return np.concatenate([center - half, center + half], axis=1)


# The Kalman steps work on stacked states: x (n, 7) and P (n, 7, 7), one
# row per filter, so each step is one numpy call for all of them rather
# than one per filter.  numpy applies element-wise steps per element and
# matrix steps (product, solve) per stacked matrix with the same BLAS /
# LAPACK call a lone matrix gets, so a row's result does not depend on
# which rows it is stacked with.  SortTracker owns its stacks, and
# KalmanBoxFilter steps a stack of one row.


def predict(x: np.ndarray, P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Advance stacked states one frame.

    x is advanced in place; returns the predicted covariances.  Q (7, 7)
    is shared by every row.
    """
    x[:, :3] += x[:, 4:]
    pinned = x[:, 2] <= 0.0
    if pinned.any():
        # area drifted non-positive: pin it and stop shrinking
        x[pinned, 2] = _SIZE_FLOOR
        x[pinned, 6] = 0.0
    return _F @ P @ _FT + Q


def update(x: np.ndarray, P: np.ndarray, z: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Fold measurements z (n, 4) into stacked states.

    x is corrected in place; returns the corrected covariances.  R (4, 4)
    is shared by every row.
    """
    innovation = z - x[:, :4]
    S = P[:, :4, :4] + R
    # K = P Ht S^-1; with H = [I4|0], P Ht is the first four columns of P
    K = np.linalg.solve(S, P[:, :, :4].transpose(0, 2, 1)).transpose(0, 2, 1)
    x += (K @ innovation[:, :, None])[:, :, 0]
    P = P - K @ P[:, :4, :]
    P = (P + P.transpose(0, 2, 1)) * 0.5
    np.maximum(x[:, 2:4], _SIZE_FLOOR, out=x[:, 2:4])  # area, aspect >= floor
    return P


def _measure(box: BoundingBox) -> np.ndarray:
    """The measurement row (1, 4) of one box of positive area."""
    if box.width <= 0.0 or box.height <= 0.0:
        raise ValueError(f"box must have positive area: {box.as_tuple()}")
    return measurement(np.array([box.as_tuple()], dtype=float))


class KalmanBoxFilter:
    """Tracks one box through time: a one-row view over the stacked steps.

    predict() advances the state one frame and returns the predicted box;
    update() folds in a measured box.  Both use the default noise model,
    so a filter ends bit for bit where the same row of a tracker's stack
    does.  x is updated in place and keeps its identity.
    """

    __slots__ = ("x", "P")

    def __init__(self, box: BoundingBox):
        self.x = np.zeros(7)
        self.x[:4] = _measure(box)[0]
        self.P = DEFAULT_P0.copy()

    def predict(self) -> BoundingBox:
        self.P = predict(self.x[None], self.P[None], DEFAULT_Q)[0]
        return self.bbox

    def update(self, box: BoundingBox) -> None:
        self.P = update(self.x[None], self.P[None], _measure(box), DEFAULT_R)[0]

    @property
    def bbox(self) -> BoundingBox:
        return BoundingBox(*corners(self.x[None])[0].tolist())
