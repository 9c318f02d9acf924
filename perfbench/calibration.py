"""Machine-speed calibration shared by the runner and the worker.

The host's speed drifts by tens of percent over minutes (see README.md),
far more than the changes the benchmark must detect.  ``calibrate()`` times
a fixed mix of the kinds of work vigil does -- ray casting in pure Python,
small-matrix numpy algebra, JSON encoding and large-array numpy passes --
with the benchmark's own code, so no change to vigil can move it.  Timings taken in
the same run are divided by ``speed_factor``, the calibration time around
them over ``REFERENCE_S``, which expresses them in seconds of a machine that
runs the calibration in ``REFERENCE_S``.
"""

from __future__ import annotations

import json
import math
from time import perf_counter

import numpy as np

# Calibration time of the reference machine: the median on the 2-vCPU
# x86-64 (2.1 GHz Xeon) container this benchmark was tuned on.
REFERENCE_S = 0.037


def _inside(x, y, poly) -> bool:
    """Ray-casting parity test (the benchmark's own, not vigil's)."""
    inside = False
    n = len(poly)
    for i in range(n):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % n]
        if (y1 > y) != (y2 > y) and x < x1 + (y - y1) / (y2 - y1) * (x2 - x1):
            inside = not inside
    return inside


_POLY = [(100.0 + 60.0 * math.cos(k * math.pi / 6), 100.0 + 45.0 * math.sin(k * math.pi / 6))
         for k in range(12)]
_F = np.eye(7) + np.eye(7, k=4)


def calibrate() -> float:
    """Seconds taken by one round of the fixed calibration work."""
    t0 = perf_counter()
    hits = sum(_inside(40.0 + (i * 7) % 130, 40.0 + (i * 11) % 120, _POLY)
               for i in range(3_000))
    P = np.eye(7)
    for _ in range(500):
        P = _F @ P @ _F.T + 0.01
        P = P / P.max()
        np.linalg.solve(P[:4, :4] + np.eye(4), P[:4, :])
    rows = [json.dumps({"frame": i, "track_id": hits, "x1": i * 0.5, "y1": i * 0.25,
                        "status": "Confirmed"}) for i in range(1_500)]
    big = np.arange(262_144.0) + len(rows)
    for _ in range(16):
        big = np.abs(big - 3.0)
    return perf_counter() - t0


def speed_factor(before, after) -> float:
    """How much slower than the reference machine the host ran, around a timing.

    *before* and *after* are the median calibration times taken just before
    and just after the timed work.
    """
    return (before + after) / (2.0 * REFERENCE_S)
