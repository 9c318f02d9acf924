"""Constant-velocity box filter vs. a textbook explicit-inverse reference."""

import math
import random

import numpy as np
import pytest

from vigil.geometry import BoundingBox, corners_ordered, iou
from vigil.kalman import DEFAULT_P0, DEFAULT_Q, DEFAULT_R, KalmanBoxFilter, corners, measurement

from oracles import (
    kalman_measurement_reference,
    kalman_predict_reference,
    kalman_update_reference,
)


def measure(*boxes: BoundingBox) -> np.ndarray:
    return measurement(np.array([box.as_tuple() for box in boxes]))


def stack_of(*boxes: BoundingBox) -> KalmanBoxFilter:
    kf = KalmanBoxFilter()
    kf.add(measure(*boxes))
    return kf


def box_of(kf: KalmanBoxFilter, row: int = 0) -> BoundingBox:
    return BoundingBox(*kf.boxes()[row].tolist())


def transition_matrix() -> np.ndarray:
    F = np.eye(7)
    F[0, 4] = F[1, 5] = F[2, 6] = 1.0
    return F


def test_measurement_round_trip():
    box = BoundingBox(10, 20, 50, 100)
    z = measure(box)
    assert z.shape == (1, 4)
    assert tuple(z[0]) == pytest.approx((30.0, 60.0, 3200.0, 0.5))
    back = corners(z)
    assert back.shape == (1, 4)
    assert tuple(back[0]) == pytest.approx(box.as_tuple(), abs=1e-9)


def test_measurement_matches_scalar_formula_bit_for_bit():
    # the rows go through numpy's element-wise -, *, / and +, which round as
    # Python's float operations do, so each row is bit for bit the scalar
    # formula's tuple, down to sub-ulp widths and coordinates near 1e15
    rnd = random.Random(61)
    boxes = []
    for _ in range(400):
        x1, y1 = rnd.uniform(-2000, 2000), rnd.uniform(-2000, 2000)
        boxes.append((x1, y1, x1 + rnd.uniform(1e-3, 500), y1 + rnd.uniform(1e-3, 500)))
    for _ in range(100):
        x1, y1 = rnd.uniform(-1e15, 1e15), rnd.uniform(-1e15, 1e15)
        boxes.append((x1, y1, x1 + rnd.uniform(0.2, 9.0), y1 + rnd.uniform(0.2, 9.0)))
    for _ in range(100):
        x1, y1 = rnd.uniform(1, 100), rnd.uniform(1, 100)
        # widths of one to a few ulps of the corner
        boxes.append((x1, y1, x1 + rnd.randint(1, 4) * math.ulp(x1),
                      y1 + rnd.randint(1, 4) * math.ulp(y1)))
    while len(boxes) < 1000:
        # corners from 1e-3 to 1e15 in size, widths from 1e-6 to 1e15, where
        # rounding tells 0.5 * (x1 + x2) from x1 + 0.5 * w; a width below
        # the corner's ulp makes a degenerate box, which is left out
        x1, y1 = (rnd.uniform(-1, 1) * 10 ** rnd.uniform(-3, 15) for _ in range(2))
        x2, y2 = x1 + 10 ** rnd.uniform(-6, 15), y1 + 10 ** rnd.uniform(-6, 15)
        if x2 > x1 and y2 > y1:
            boxes.append((x1, y1, x2, y2))
    got = measurement(np.array(boxes))
    want = np.array([kalman_measurement_reference(box) for box in boxes])
    assert got.shape == (len(boxes), 4)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_initial_state():
    box = BoundingBox(0, 0, 20, 10)
    kf = stack_of(box)
    assert kf.x.shape == (1, 7) and kf.P.shape == (1, 7, 7)
    assert np.array_equal(kf.x[0, :4], measure(box)[0])
    assert kf.x[0, 4:] == pytest.approx([0.0, 0.0, 0.0])
    assert np.array_equal(kf.P[0], DEFAULT_P0)
    assert box_of(kf).as_tuple() == pytest.approx(box.as_tuple(), abs=1e-9)


def test_matches_reference_filter_on_random_sequences():
    rnd = random.Random(314)
    F = transition_matrix()
    for _ in range(25):
        cx, cy = rnd.uniform(50, 500), rnd.uniform(50, 500)
        w, h = rnd.uniform(10, 60), rnd.uniform(10, 60)
        first = BoundingBox(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)
        kf = stack_of(first)
        x_ref = np.concatenate([kalman_measurement_reference(first.as_tuple()),
                                np.zeros(3)])
        P_ref = DEFAULT_P0.copy()
        for _ in range(12):
            kf.predict()
            x_ref, P_ref = kalman_predict_reference(x_ref, P_ref, F, DEFAULT_Q)
            # keep the reference honest: no clamp should have fired
            assert x_ref[2] > 1e-3
            cx += rnd.uniform(-4, 4)
            cy += rnd.uniform(-4, 4)
            meas = BoundingBox(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)
            kf.update([0], measure(meas))
            x_ref, P_ref = kalman_update_reference(x_ref, P_ref,
                                                   measure(meas)[0], DEFAULT_R)
            assert kf.x[0] == pytest.approx(x_ref, abs=1e-6)
            assert kf.P[0] == pytest.approx(P_ref, abs=1e-6)


def test_filters_stepped_together_match_filters_stepped_alone():
    # the tracker keeps every track's state as a row of one stack: one
    # predict over the stack, then one update over the matched rows, given
    # in match order, a compaction and an append.  Each row must end bit for
    # bit where stepping it alone in a stack of one puts it, whatever it is
    # stacked with
    rnd = random.Random(8)

    def random_box():
        x1, y1 = rnd.uniform(0, 800), rnd.uniform(0, 600)
        return BoundingBox(x1, y1, x1 + rnd.uniform(5, 120), y1 + rnd.uniform(5, 120))

    first = [random_box() for _ in range(7)]
    together = stack_of(*first)
    alone = [stack_of(box) for box in first]

    rnd = random.Random(9)
    for step in range(80):
        if step == 20:  # one area collapses, so one row of the stack is pinned
            together.x[5, 6] = alone[5].x[0, 6] = -1e6
        if step == 40:  # a filter leaves and a new one joins at the end
            rows = [i for i in range(len(alone)) if i != 2]
            together.keep(rows)
            alone = [alone[i] for i in rows]
            box = random_box()
            together.add(measure(box))
            alone.append(stack_of(box))
        together.predict()
        for f in alone:
            f.predict()
        assert together.boxes().tolist() == [f.boxes()[0].tolist() for f in alone]
        rows = [i for i in range(len(alone)) if rnd.random() < 0.7]
        rnd.shuffle(rows)  # match order is not row order
        boxes = []
        for i in rows:
            cx, cy = (together.x[i, 0] + rnd.uniform(-3, 3),
                      together.x[i, 1] + rnd.uniform(-3, 3))
            w, h = rnd.uniform(5, 120), rnd.uniform(5, 120)
            boxes.append(BoundingBox(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2))
        if rows:
            together.update(rows, measure(*boxes))
        for i, box in zip(rows, boxes):
            alone[i].update([0], measure(box))
        assert len(together.x) == len(together.P) == len(alone)
        for i, f in enumerate(alone):
            assert np.array_equal(together.x[i], f.x[0]) and np.array_equal(together.P[i], f.P[0])
    assert together.x[4, 2] >= 1e-4 and alone[4].x[0, 2] >= 1e-4  # the pinned row


def test_covariance_stays_symmetric():
    kf = stack_of(BoundingBox(0, 0, 30, 30))
    rnd = random.Random(2)
    for i in range(30):
        kf.predict()
        d = rnd.uniform(-2, 2)
        kf.update([0], measure(BoundingBox(d + i, d, 30 + d + i, 30 + d)))
        P = kf.P[0]
        assert np.array_equal(P, P.T)
        assert np.all(np.diag(P) > 0)


def test_converges_on_constant_velocity_track():
    vx, vy = 5.0, 3.0
    w, h = 24.0, 36.0
    kf = stack_of(BoundingBox(0, 0, w, h))
    box = None
    for f in range(1, 25):
        kf.predict()
        x1, y1 = vx * f, vy * f
        box = BoundingBox(x1, y1, x1 + w, y1 + h)
        kf.update([0], measure(box))
    kf.predict()
    predicted = box_of(kf)
    true_next = BoundingBox(box.x1 + vx, box.y1 + vy, box.x2 + vx, box.y2 + vy)
    px, py = predicted.center
    tx, ty = true_next.center
    assert abs(px - tx) < 0.5 and abs(py - ty) < 0.5
    assert iou(predicted, true_next) > 0.9
    # velocity estimate itself should be close
    assert kf.x[0, 4] == pytest.approx(vx, abs=0.3)
    assert kf.x[0, 5] == pytest.approx(vy, abs=0.3)


def test_predict_clamps_collapsing_area():
    kf = stack_of(BoundingBox(0, 0, 10, 10))
    kf.x[0, 6] = -1e6                   # force the area below zero next step
    kf.predict()
    assert kf.x[0, 2] == pytest.approx(1e-4)
    assert kf.x[0, 6] == 0.0            # shrink rate reset with the clamp
    predicted = box_of(kf)
    assert predicted.width > 0 and predicted.height > 0


def test_update_keeps_shape_positive():
    kf = stack_of(BoundingBox(0, 0, 100, 100))
    for _ in range(20):
        kf.predict()
        kf.update([0], measure(BoundingBox(0, 0, 0.02, 0.02)))
    assert kf.x[0, 2] >= 1e-4
    assert kf.x[0, 3] >= 1e-4
    assert box_of(kf).width > 0


def test_deterministic_given_same_inputs():
    seq = [BoundingBox(i * 3.0, i * 2.0, i * 3.0 + 20, i * 2.0 + 40)
           for i in range(10)]

    def run():
        kf = stack_of(seq[0])
        out = []
        for b in seq[1:]:
            kf.predict()
            kf.update([0], measure(b))
            out.append(tuple(kf.x[0]))
        return out

    assert run() == run()


def test_corner_rows_keep_the_box_corner_rule():
    # a track's box is its row of corners(), kept without building a
    # BoundingBox: every row must keep BoundingBox's corner rule, for
    # states that overflow to inf or nan too (monotone rounding keeps
    # u - w / 2 <= u <= u + w / 2, and a nan compares false)
    values = [0.0, -0.0, 1.0, -7.5, 640.0, 1e-300, 1e15, -1e300, 1e300, 1.7976931348623157e308,
              -1.7976931348623157e308, math.inf, -math.inf, math.nan]
    sizes = [1e-4, 0.5, 3.0, 1e3, 1e300, 1.7976931348623157e308, math.inf, math.nan]
    rnd = random.Random(13)
    rows = []
    for _ in range(20000):
        x = [rnd.choice(values) if rnd.random() < 0.5 else rnd.uniform(-1e4, 1e4)
             for _ in range(2)]
        x += [rnd.choice(sizes), rnd.choice(sizes)] + [0.0, 0.0, 0.0]
        rows.append(x)
    boxes = corners(np.array(rows))
    assert np.isnan(boxes).any() and np.isinf(boxes).any()  # such rows are in
    for row in boxes.tolist():
        assert corners_ordered(*row), row
        BoundingBox(*row)  # its own check, which the tracker no longer runs
