"""Constant-velocity Kalman filter over box observations.

State is x = [u, v, s, r, du, dv, ds]: box center (u, v), area s, aspect
ratio r = width / height, plus per-frame velocities of the first three.
Aspect ratio is modeled as constant.  Measurements are z = [u, v, s, r]
with H = [I4 | 0].
"""

from __future__ import annotations

import numpy as np

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


class KalmanBoxFilter:
    """A stack of box filters: states x (n, 7) and covariances P (n, 7, 7),
    one row per filter, all under the default noise model.

    Each step is one numpy call for all rows rather than one per filter.
    numpy applies element-wise steps per element and matrix steps (product,
    solve) per stacked matrix with the same BLAS / LAPACK call a lone matrix
    gets, so a row's result does not depend on which rows it is stacked
    with.  Rows keep their order: add appends, keep compacts.
    """

    __slots__ = ("x", "P")

    def __init__(self):
        self.x = np.zeros((0, 7))
        self.P = np.zeros((0, 7, 7))

    def add(self, z: np.ndarray) -> None:
        """Append one filter per measurement row of z (k, 4), at rest, with
        covariance DEFAULT_P0.  corners needs s * r > 0 of every row."""
        x0 = np.zeros((len(z), 7))
        x0[:, :4] = z
        self.x = np.concatenate([self.x, x0])
        self.P = np.concatenate([self.P, np.broadcast_to(DEFAULT_P0, (len(z), 7, 7))])

    def predict(self) -> None:
        """Advance every row one frame."""
        x = self.x
        x[:, :3] += x[:, 4:]
        pinned = x[:, 2] <= 0.0
        if pinned.any():
            # area drifted non-positive: pin it and stop shrinking
            x[pinned, 2] = _SIZE_FLOOR
            x[pinned, 6] = 0.0
        self.P = _F @ self.P @ _FT + DEFAULT_Q

    def update(self, rows: list[int], z: np.ndarray) -> None:
        """Fold measurement z[i] (len(rows), 4) into row rows[i], for
        distinct rows in any order."""
        x = self.x.take(rows, 0)
        P = self.P.take(rows, 0)
        innovation = z - x[:, :4]
        S = P[:, :4, :4] + DEFAULT_R
        # K = P Ht S^-1; with H = [I4|0], P Ht is the first four columns of P
        K = np.linalg.solve(S, P[:, :, :4].transpose(0, 2, 1)).transpose(0, 2, 1)
        x += (K @ innovation[:, :, None])[:, :, 0]
        P = P - K @ P[:, :4, :]
        P = (P + P.transpose(0, 2, 1)) * 0.5
        np.maximum(x[:, 2:4], _SIZE_FLOOR, out=x[:, 2:4])  # area, aspect >= floor
        self.P[rows] = P
        self.x[rows] = x

    def keep(self, rows: list[int]) -> None:
        """Compact the stack to the given rows, in their order."""
        self.x = self.x[rows]
        self.P = self.P[rows]

    def boxes(self) -> np.ndarray:
        """Corner rows (n, 4) of the states."""
        return corners(self.x)
