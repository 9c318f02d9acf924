"""Minimum-cost assignment vs. exhaustive permutation enumeration."""

import math
import random
from collections import Counter

import numpy as np
import pytest

import vigil.assignment
import vigil.tracker
from vigil.assignment import hungarian_assign
from vigil.geometry import iou_matrix
from vigil.sources import ObjectSpec, SyntheticSceneConfig, simulate
from vigil.tracker import SortTracker, TrackerConfig

from oracles import (
    assignment_bruteforce,
    assignment_cost,
    hungarian_assign_reference,
    solve_square_numpy_scalars,
    solve_square_reference,
)


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


def test_a_cost_that_is_not_a_finite_matrix_is_refused():
    with pytest.raises(ValueError, match="2-D"):
        hungarian_assign([0.5, 1.0])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="non-finite"):
            hungarian_assign([[0.5, bad], [1.0, 0.25]])


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


# -- the forced-matching fast path ---------------------------------------------


def _solved(cost):
    """The pairs of the full solve: _solve_square, then _canonicalize."""
    a = np.asarray(cost, dtype=float)
    m, n = a.shape
    padded = _padded(a)
    u, v, row_to_col = vigil.assignment._solve_square(padded)
    vigil.assignment._canonicalize(padded, u, v, row_to_col, m, n)
    return sorted((i, row_to_col[i]) for i in range(m) if row_to_col[i] < n)


def _lines(a):
    """The matrix the fast path reads: rows, or columns when m > n."""
    return a if a.shape[0] <= a.shape[1] else a.T


def _with_constant_lines(gen, a):
    """*a* with one to three rows or columns set to one value each."""
    a = a.copy()
    for _ in range(gen.integers(1, 4)):
        value = gen.choice([0.0, 1.0, 2.5, 7.0, -1.0, 1e6])
        if gen.random() < 0.5:
            a[gen.integers(0, a.shape[0]), :] = value
        else:
            a[:, gen.integers(0, a.shape[1])] = value
    return a


def _near_ties(gen, a, factors):
    """*a* with each row's (or column's, when m > n) minimum echoed in a
    second cell at the minimum plus factor * the fast path's tolerance."""
    a = a.copy()
    lines = _lines(a)  # a view: writes go to a
    m, n = a.shape
    tol = max(m, n) * 1e-9 * max(1.0, float(np.abs(a).max()))
    for row in lines:
        j, k = int(row.argmin()), int(gen.integers(0, len(row)))
        if j != k:
            row[k] = row[j] + gen.choice(factors) * tol
    return a


def _forced_pool():
    gen = np.random.default_rng(42)
    pool = []
    for k in range(3000):
        m, n = sorted(int(x) for x in gen.integers(1, 10, size=2))
        m, n = ((m, n), (m, m), (n, m))[k % 3]  # m <= n, m = n, m >= n in turn
        kind = k % 4
        if kind == 0:  # sparse 1 - IoU: most cells exactly 1.0
            a = np.ones((m, n))
            hit = gen.random((m, n)) < 0.25
            a[hit] = gen.random(int(hit.sum()))
        elif kind == 1:  # integer ties
            a = gen.integers(0, 4, size=(m, n)).astype(float)
        elif kind == 2:  # dense costs, scaled
            a = gen.random((m, n)) * 10.0 ** int(gen.integers(-3, 6))
        else:  # a background of one value, a few other cells
            a = np.full((m, n), gen.choice([0.0, 1.0, -3.0]))
            hit = gen.random((m, n)) < 0.3
            a[hit] = gen.integers(-2, 3, size=int(hit.sum()))
        a = _with_constant_lines(gen, a)
        if k % 5 == 0:  # just above and just below the tolerance
            a = _near_ties(gen, a, [0.5, 0.999, 1.0, 1.001, 1.5, 3.0])
        pool.append(a)
    return pool


def test_forced_matchings_equal_the_full_solve(monkeypatch):
    pool = _forced_pool()
    want = [_solved(a) for a in pool]
    solves = []
    solve = vigil.assignment._solve_square

    def counted(a):
        solves.append(a.shape)
        return solve(a)

    monkeypatch.setattr(vigil.assignment, "_solve_square", counted)
    skipped = {"m < n": 0, "m = n": 0, "m > n": 0}
    for k, a in enumerate(pool):
        before = len(solves)
        assert hungarian_assign(a) == want[k], (k, a.tolist())
        if len(solves) == before:
            m, n = a.shape
            skipped["m < n" if m < n else "m = n" if m == n else "m > n"] += 1
    # every shape takes the fast path often, and the near ties reach the solve
    assert min(skipped.values()) > 100, skipped
    assert len(solves) > 300


def _bruteforce_pool():
    # integer and dyadic costs sum exactly, so brute force sees exact ties
    gen = np.random.default_rng(6)
    pool = []
    for k in range(600):
        m, n = (int(x) for x in gen.integers(1, 7, size=2))
        if k % 2:
            a = gen.integers(0, 5, size=(m, n)).astype(float)
        else:
            a = np.ones((m, n))
            hit = gen.random((m, n)) < 0.3
            a[hit] = gen.integers(0, 1024, size=int(hit.sum())) / 1024.0
        pool.append(_with_constant_lines(gen, a))
    return pool


def test_forced_matchings_match_bruteforce():
    taken = 0
    for k, a in enumerate(_bruteforce_pool()):
        cost = a.tolist()
        lines = _lines(a)
        taken += vigil.assignment._settle(lines)[1] == "forced" \
            and (lines.min(axis=1) == lines.max(axis=1)).any()
        assert hungarian_assign(cost) == assignment_bruteforce(cost, tie_eps=0.0)[1], (k, cost)
    assert taken > 100


def test_a_forced_matrix_with_a_constant_line_is_not_solved(monkeypatch):
    # track 1 overlaps nothing (a row of 1.0); its transpose is a detection
    # that nothing overlaps (a column of 1.0)
    cost = [[0.9, 1.0, 0.2, 1.0],
            [1.0, 1.0, 1.0, 1.0],
            [1.0, 0.1, 1.0, 0.95]]
    want = [(0, 2), (1, 0), (2, 1)]
    assert _solved(cost) == want
    assert _solved(np.array(cost).T) == sorted((j, i) for i, j in want)

    def no_solve(a):
        raise AssertionError("solved a forced matrix")

    monkeypatch.setattr(vigil.assignment, "_solve_square", no_solve)
    assert hungarian_assign(cost) == want
    assert hungarian_assign(np.array(cost).T) == sorted((j, i) for i, j in want)
    # two constant rows take the free columns in row order, around the argmins
    cost = [[5.0] * 5, [1.0, 1.0, 1.0, 0.0, 1.0], [2.0] * 5, [0.5, 1.0, 1.0, 1.0, 1.0]]
    assert hungarian_assign(cost) == [(0, 1), (1, 3), (2, 2), (3, 0)]
    assert hungarian_assign(np.array(cost).T) == [(0, 3), (1, 0), (2, 2), (3, 1)]


def test_a_near_tie_is_settled_as_the_full_solve_settles_it():
    # row 1's two smallest costs lie 6.5e-6 apart, inside the tolerance of
    # 5 * 1e-9 * 1e6 that the 1e6 column sets: the solve counts them as tied
    # and takes the lower column.  The fast path once returned row 1's exact
    # argmin (column 2) here, because every row's minimum was strict.
    cost = [[2.300759251188248e-4, 5.048843820016543e-4, 4.521617982583014e-4,
             5.736110941220729e-4, 1e6],
            [8.035744738036452e-4, 2.719182436567138e-4, 2.65426271507439e-4,
             6.155317960398151e-4, 1e6]]
    want = [(0, 0), (1, 1)]
    assert _solved(cost) == want
    assert hungarian_assign(cost) == want
    assert hungarian_assign(np.array(cost).T) == want
    # the settle step refuses it too: all but the 1e6 costs lie within the
    # tolerance of each other, so the rows' arcs form a cycle
    assert vigil.assignment._settle(np.array(cost)) == (None, "cycle")


def _tracker_costs(monkeypatch):
    """Every matrix SortTracker solves on a dense scene with clutter, misses
    and two classes, whichever path answers it."""
    rnd = random.Random(1)
    objects = tuple(ObjectSpec(rnd.choice(("person", "car")),
                               (rnd.uniform(40, 600), rnd.uniform(40, 440)),
                               (rnd.uniform(-6, 6), rnd.uniform(-6, 6)),
                               (rnd.uniform(20, 60), rnd.uniform(20, 60)))
                    for _ in range(30))
    scene = simulate(SyntheticSceneConfig(
        width=640, height=480, fps=10, duration_frames=50, objects=objects,
        jitter_sigma=2.0, miss_probability=0.1, false_positives_per_frame=2.0, seed=3))
    costs = []
    monkeypatch.setattr(vigil.tracker, "hungarian_assign",
                        lambda cost: costs.append(cost) or hungarian_assign(cost))
    tracker = SortTracker(TrackerConfig(max_age=2))
    for meta, dets in zip(scene.frames, scene.noisy):
        tracker.step(meta, dets)
    return costs


def test_the_trackers_matrices_equal_the_full_solve(monkeypatch):
    # both fast paths are reached; the pools below reach the full solve
    costs = _tracker_costs(monkeypatch)
    forced = 0
    for k, cost in enumerate(costs):
        assert hungarian_assign(cost) == _solved(cost), k
        forced += vigil.assignment._settle(_lines(cost))[1] == "forced"
    assert 20 < forced < len(costs) - 20, (forced, len(costs))


# -- the settle step -----------------------------------------------------------


def _crowd_pool():
    """1 - IoU as a crowd gives it: up to 30 tracks and detections, each
    track overlapping 0-3 of them.  Overlaps are rounded, a third of them
    share one value, and a line may repeat another, so ties abound."""
    gen = np.random.default_rng(31)
    pool = []
    for k in range(16500):
        m, n = (int(x) for x in gen.integers(1, 31 if k % 20 == 0 else 11, size=2))
        a = np.ones((m, n))
        picks = np.argsort(gen.random((m, n)), axis=1)[:, :3]
        hit = np.arange(picks.shape[1]) < gen.integers(0, 4, size=(m, 1))
        values = np.round(gen.random(hit.shape), 2)
        values[gen.random(hit.shape) < 0.3] = round(float(gen.random()), 2)
        a[np.nonzero(hit)[0], picks[hit]] = values[hit]
        for _ in range(int(gen.integers(0, 3))):
            if gen.random() < 0.5:
                a[gen.integers(0, m)] = a[gen.integers(0, m)]
            else:
                a[:, gen.integers(0, n)] = a[:, gen.integers(0, n)]
        pool.append(a)
    return pool


def _counting_outcomes(monkeypatch):
    """A Counter that _settle's outcomes go into from now on."""
    outcomes = Counter()
    settle = vigil.assignment._settle

    def counted(a):
        cols, how = settle(a)
        outcomes[how] += 1
        return cols, how

    monkeypatch.setattr(vigil.assignment, "_settle", counted)
    return outcomes


def test_the_settle_step_equals_the_frozen_solve(monkeypatch):
    pool = _forced_pool() + _bruteforce_pool() + _tracker_costs(monkeypatch) + _crowd_pool()
    assert len(pool) >= 20000
    outcomes = _counting_outcomes(monkeypatch)
    for k, cost in enumerate(pool):
        assert hungarian_assign(cost) == hungarian_assign_reference(cost), k
    # each way to settle and each refusal that a tie causes; a refusal
    # is a full solve
    assert set(outcomes) == {"forced", "settled", "wildcards", "cycle", "pool"}, outcomes
    assert min(outcomes.values()) >= 50, outcomes


def test_an_overflowed_dual_goes_to_the_full_solve(monkeypatch):
    # two rows whose one finite-sum column is the same: the second's path
    # is infinitely long, its duals overflow and the reduced costs hold a
    # NaN.  The full solve then answers as it did before, or, where it
    # failed inside list.remove, says that the differences overflow.
    gen = np.random.default_rng(8)
    outcomes = _counting_outcomes(monkeypatch)
    answered = 0
    for k in range(200):
        m, n = (int(x) for x in gen.integers(2, 8, size=2))
        a = gen.uniform(-1.0, 1.0, size=(m, n)) * 1.5e308
        lines = _lines(a)  # a view: writes go to a
        rows = gen.choice(lines.shape[0], size=2, replace=False)
        lines[rows] = 1.5e308
        lines[rows, gen.integers(0, lines.shape[1])] = -1.5e308
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                want = hungarian_assign_reference(a)
            except ValueError as exc:
                assert str(exc) == "list.remove(x): x not in list"
                want = "cost differences overflow the float range"
            try:
                got = hungarian_assign(a)
            except ValueError as exc:
                got = str(exc)
        assert got == want, (k, a.tolist())
        answered += isinstance(want, list)
    assert outcomes == {"tolerance": 200}, outcomes
    assert answered >= 50


def test_a_difference_past_the_float_range_is_named():
    # finite costs whose differences overflow: no column of the path's scan
    # has a reduced cost below inf
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="cost differences overflow the float range"):
            hungarian_assign([[-1.7e308, 1.7e308], [-1.7e308, 1.7e308]])


def test_a_contested_matrix_is_not_solved(monkeypatch):
    # rows 0 and 1 want column 0: row 1 takes it and row 0 moves to column
    # 1 (an augmenting path); rows 3 and 4 want column 2: row 3 loses it
    # and becomes a wildcard row, 1.0 at every unheld column, which it
    # shares with constant row 2 in row order
    cost = [[0.2, 0.3, 1.0, 1.0, 1.0],
            [0.1, 1.0, 1.0, 1.0, 1.0],
            [1.0, 1.0, 1.0, 1.0, 1.0],
            [1.0, 1.0, 0.6, 1.0, 1.0],
            [1.0, 1.0, 0.4, 1.0, 1.0]]
    want = [(0, 1), (1, 0), (2, 3), (3, 4), (4, 2)]
    assert _solved(cost) == want
    assert _solved(np.array(cost).T) == sorted((j, i) for i, j in want)
    assert vigil.assignment._settle(np.array(cost)) == ([1, 0, 3, 4, 2], "wildcards")
    assert vigil.assignment._settle(np.array(cost[:2])) == ([1, 0], "settled")

    def no_solve(a):
        raise AssertionError("solved a contested matrix")

    monkeypatch.setattr(vigil.assignment, "_solve_square", no_solve)
    assert hungarian_assign(cost) == want
    assert hungarian_assign(np.array(cost).T) == sorted((j, i) for i, j in want)


def test_solver_matches_its_reference_bit_for_bit(monkeypatch):
    # the forced pool, the brute-force matrices and every matrix the tracker
    # solves, padded as hungarian_assign pads them, all solved in full
    costs = _forced_pool() + _bruteforce_pool() + _tracker_costs(monkeypatch)
    for k, cost in enumerate(costs):
        a = _padded(np.asarray(cost, dtype=float))
        u, v, row_to_col = vigil.assignment._solve_square(a)
        want_u, want_v, want_cols = solve_square_reference(a)
        assert row_to_col == want_cols, k
        assert np.array_equal(u.view(np.uint64), want_u.view(np.uint64)), k
        assert np.array_equal(v.view(np.uint64), want_v.view(np.uint64)), k
