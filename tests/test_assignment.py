"""Minimum-cost assignment vs. exhaustive permutation enumeration."""

import math
import random

import numpy as np
import pytest

import vigil.assignment
from vigil.assignment import hungarian_assign
from vigil.geometry import iou_matrix

from oracles import assignment_bruteforce, assignment_cost, solve_square_numpy_scalars


def test_known_square_instance():
    cost = [[4, 1, 3],
            [2, 0, 5],
            [3, 2, 2]]
    pairs = hungarian_assign(cost)
    assert pairs == [(0, 1), (1, 0), (2, 2)]
    assert assignment_cost(cost, pairs) == 5


def test_identity_on_all_equal_costs():
    # every assignment is optimal; tie-break must pick the lexicographically
    # smallest pair sequence, i.e. the identity
    cost = np.ones((4, 4))
    assert hungarian_assign(cost) == [(0, 0), (1, 1), (2, 2), (3, 3)]


def test_tie_break_prefers_low_row_then_col():
    # two optimal solutions: (0,0),(1,1) and (0,1),(1,0) both cost 2
    cost = [[1, 1], [1, 1]]
    assert hungarian_assign(cost) == [(0, 0), (1, 1)]
    # anti-diagonal strictly better
    cost = [[5, 1], [1, 5]]
    assert hungarian_assign(cost) == [(0, 1), (1, 0)]


def test_rectangular_shapes():
    # wide: every row is assigned
    pairs = hungarian_assign([[9, 1, 9, 9], [9, 9, 1, 9]])
    assert pairs == [(0, 1), (1, 2)]
    # tall: every column is assigned
    pairs = hungarian_assign([[9, 9], [1, 9], [9, 1]])
    assert pairs == [(1, 0), (2, 1)]
    assert hungarian_assign(np.zeros((0, 3))) == []
    assert hungarian_assign(np.zeros((3, 0))) == []


def test_matches_bruteforce_on_integer_matrices():
    rnd = random.Random(99)
    for trial in range(300):
        m = rnd.randint(1, 5)
        n = rnd.randint(1, 5)
        cost = [[rnd.randint(0, 9) for _ in range(n)] for _ in range(m)]
        pairs = hungarian_assign(cost)
        want_total, want_pairs = assignment_bruteforce(cost, tie_eps=0.0)
        assert assignment_cost(cost, pairs) == want_total, (trial, cost)
        # integer costs: ties are exact, canonical pair list must match too
        assert pairs == want_pairs, (trial, cost)


def test_matches_bruteforce_on_float_matrices():
    rnd = random.Random(2024)
    for trial in range(200):
        m = rnd.randint(1, 5)
        n = rnd.randint(1, 5)
        cost = [[rnd.uniform(0, 10) for _ in range(n)] for _ in range(m)]
        pairs = hungarian_assign(cost)
        want_total, _ = assignment_bruteforce(cost)
        got = math.fsum(cost[r][c] for r, c in pairs)
        assert got == pytest.approx(want_total, abs=1e-9), (trial, cost)


def test_dyadic_lattice_costs_are_exact():
    # costs on a 1/1024 lattice make every partial sum exact in float64,
    # so optimality can be asserted with plain equality
    rnd = random.Random(5)
    for _ in range(100):
        m = rnd.randint(1, 5)
        n = rnd.randint(1, 5)
        cost = [[rnd.randrange(10241) / 1024.0 for _ in range(n)]
                for _ in range(m)]
        pairs = hungarian_assign(cost)
        want_total, _ = assignment_bruteforce(cost, tie_eps=0.0)
        assert math.fsum(cost[r][c] for r, c in pairs) == want_total


def test_result_is_valid_matching():
    rnd = random.Random(7)
    for _ in range(100):
        m = rnd.randint(1, 6)
        n = rnd.randint(1, 6)
        cost = np.array([[rnd.uniform(0, 1) for _ in range(n)] for _ in range(m)])
        pairs = hungarian_assign(cost)
        assert len(pairs) == min(m, n)
        assert pairs == sorted(pairs)
        assert len({r for r, _ in pairs}) == len(pairs)
        assert len({c for _, c in pairs}) == len(pairs)
        assert all(0 <= r < m and 0 <= c < n for r, c in pairs)


# -- bit identity with the numpy-scalar solver ---------------------------------


def _crowd_like_cost(gen, m, n):
    """1 - IoU between m predicted and n detected boxes, mostly exactly 1.0."""
    def boxes(k):
        xy = gen.uniform(0.0, 600.0, size=(k, 2))
        wh = gen.uniform(20.0, 60.0, size=(k, 2))
        return np.hstack([xy, xy + wh])
    tracks = boxes(m)
    dets = boxes(n)
    near = min(m, n) // 2  # half the detections sit on a track, jittered
    dets[:near] = tracks[:near] + gen.normal(0.0, 4.0, size=(near, 4))
    return 1.0 - iou_matrix(tracks, dets)


def _solver_cases():
    gen = np.random.default_rng(20)
    # floats on [0, 1) hide a regrouped subtraction; scaled ones do not
    cases = [gen.random((n, n)) * 1000.0 for n in range(1, 41) for _ in range(2)]
    for _ in range(60):
        m, n = gen.integers(1, 25, size=2)
        cases.append(gen.integers(0, 4, size=(m, n)).astype(float))
    for m, n in ((1, 1), (3, 3), (4, 7), (9, 2), (20, 20)):
        cases.append(np.full((m, n), 2.5))
    crowd = []
    for k in range(60):
        big, small = gen.integers(2, 31), gen.integers(1, 16)
        if small >= big:
            big, small = small + 1, big
        crowd.append(_crowd_like_cost(gen, big, small) if k % 2
                     else _crowd_like_cost(gen, small, big))
    assert all((cost == 1.0).mean() > 0.5 for cost in crowd)
    return cases + crowd


def _padded(cost):
    m, n = cost.shape
    out = np.zeros((max(m, n), max(m, n)))
    out[:m, :n] = cost
    return out


def test_solver_matches_numpy_scalar_solver_bit_for_bit(monkeypatch):
    cases = _solver_cases()
    for k, cost in enumerate(cases):
        a = _padded(cost)
        u, v, row_to_col = vigil.assignment._solve_square(a)
        want_u, want_v, want_cols = solve_square_numpy_scalars(a)
        assert row_to_col == want_cols, k
        assert u.dtype == v.dtype == np.float64
        assert np.array_equal(u.view(np.uint64), want_u.view(np.uint64)), k
        assert np.array_equal(v.view(np.uint64), want_v.view(np.uint64)), k
    pairs = [hungarian_assign(cost) for cost in cases]
    monkeypatch.setattr(vigil.assignment, "_solve_square", solve_square_numpy_scalars)
    assert [hungarian_assign(cost) for cost in cases] == pairs
