"""Diversity models, greedy selection, and the lazy-evaluation shortcut."""

import json
import math
import pathlib
import random
import tracemalloc

import numpy as np
import pytest

import vigil.cli
from vigil import summarize
from vigil.errors import DataError
from vigil.summarize import (
    DEFAULT_BUDGET,
    SIGNATURE_DIM,
    MODEL_KINDS,
    FacilityLocation,
    GroundSet,
    SaturatedCoverage,
    build_model,
    ground_set_from_csv,
    lazy_greedy_trace,
    signature_from_image,
    similarity_matrix,
    write_selection_csv,
    write_signature_csv,
)

from oracles import (
    best_subset,
    facility_location_value,
    greedy_trace,
    saturated_coverage_value,
    signature_rows_reference,
    similarity,
)


def random_similarity(rnd, n: int) -> np.ndarray:
    """Symmetric matrix with unit diagonal and entries in [0, 1]."""
    S = np.array([[rnd.random() for _ in range(n)] for _ in range(n)])
    S = 0.5 * (S + S.T)
    np.fill_diagonal(S, 1.0)
    return S


# ---------------------------------------------------------------------------
# signatures and similarity


def test_signature_of_solid_color_image():
    img = np.zeros((16, 16, 3), np.uint8)
    img[:] = (255, 0, 0)                     # every pixel in one bin
    sig = signature_from_image(img)
    assert sig.shape == (SIGNATURE_DIM,)
    assert sig.sum() == pytest.approx(1.0)
    hot = (255 >> 5) << 6                    # (r_bin << 6) + (g_bin << 3) + b_bin
    assert sig[hot] == pytest.approx(1.0)


def test_signature_is_distribution():
    rnd = np.random.default_rng(3)
    img = rnd.integers(0, 256, size=(20, 30, 3), dtype=np.uint8)
    sig = signature_from_image(img)
    assert np.all(sig >= 0)
    assert sig.sum() == pytest.approx(1.0)


def test_grayscale_images_accepted():
    img = np.full((8, 8), 100, np.uint8)
    sig = signature_from_image(img)
    assert sig.sum() == pytest.approx(1.0)
    # gray maps to r == g == b
    rgb = np.stack([img] * 3, axis=-1)
    assert np.array_equal(sig, signature_from_image(rgb))


def test_similarity_range_and_extremes():
    a = np.zeros(8); a[0] = 1.0
    b = np.zeros(8); b[4] = 1.0
    assert similarity(a, a) == pytest.approx(1.0)
    assert similarity(a, b) == pytest.approx(0.0)     # disjoint support
    c = np.full(8, 1 / 8)
    val = similarity(a, c)
    assert 0.0 < val < 1.0
    assert similarity(c, a) == pytest.approx(val)


def test_similarity_matrix_agrees_with_pairs():
    rnd = np.random.default_rng(5)
    sigs = rnd.random((6, 16))
    sigs /= sigs.sum(axis=1, keepdims=True)
    S = similarity_matrix(sigs)
    assert S.shape == (6, 6)
    for i in range(6):
        for j in range(6):
            assert S[i, j] == pytest.approx(similarity(sigs[i], sigs[j]), abs=1e-12)
    assert np.allclose(np.diag(S), 1.0)


def _signatures(rng, n: int, d: int) -> np.ndarray:
    """L1-normalized rows, every third one all-zero."""
    sigs = rng.random((n, d))
    sigs /= sigs.sum(axis=1, keepdims=True)
    sigs[::3] = 0.0
    return sigs


def _bits(a: np.ndarray) -> np.ndarray:
    return a.view(np.uint64)


@pytest.mark.parametrize("n, d", [(0, 5), (1, 1), (2, 3), (7, 1), (7, 17),
                                  (13, 129), (13, 512)])
def test_similarity_matrix_rows_match_full_broadcast_bits(n, d):
    sigs = _signatures(np.random.default_rng(100 * n + d), n, d)
    S = similarity_matrix(sigs)
    want = 1 - 0.5 * np.abs(sigs[:, None] - sigs[None]).sum(2)
    assert S.shape == (n, n)
    assert np.array_equal(_bits(S), _bits(want))


def test_similarity_matrix_of_empty_ground_set():
    ground = GroundSet([], [])
    assert ground.signatures.ndim == 1
    assert similarity_matrix(ground.signatures).shape == (0, 0)
    for kind in MODEL_KINDS:
        model = build_model(kind, ground)
        assert model.n == 0
        assert lazy_greedy_trace(model, 3) == []


def test_similarity_matrix_memory_is_output_plus_one_signatures_buffer():
    n, d = 400, 512
    sigs = _signatures(np.random.default_rng(8), n, d)
    tracemalloc.start()
    try:
        S = similarity_matrix(sigs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < S.nbytes + sigs.nbytes + (256 << 10)


@pytest.mark.parametrize("model_cls", [FacilityLocation, SaturatedCoverage])
def test_rows_on_demand_match_precomputed_matrix(monkeypatch, model_cls):
    n = 23
    sigs = _signatures(np.random.default_rng(12), n, 17)
    cached = [model_cls(signatures=sigs) for _ in range(3)]
    monkeypatch.setattr(summarize, "SIM_PRECOMPUTE_BYTES", 8 * n * n - 1)
    on_demand = [model_cls(signatures=sigs) for _ in range(3)]
    assert cached[0]._S is not None and on_demand[0]._S is None
    for j in range(n):
        assert np.array_equal(_bits(on_demand[0]._row(j)), _bits(cached[0]._row(j)))
    if model_cls is SaturatedCoverage:
        assert np.array_equal(_bits(on_demand[0]._cap), _bits(cached[0]._cap))
    assert greedy_trace(on_demand[1], 9) == greedy_trace(cached[1], 9)
    assert lazy_greedy_trace(on_demand[2], 9) == lazy_greedy_trace(cached[2], 9)


def test_trace_seam_times_model_build(tmp_path, monkeypatch):
    # perfbench/tracing.py times the build by rebinding vigil.cli.build_model;
    # if the name moved, summarize.model_build would silently read 0
    monkeypatch.syspath_prepend(
        str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))
    from tracing import Tracer

    (tmp_path / "sig.csv").write_text("a,1,0,0\nb,0,1,0\nc,1,1,0\n")
    config = tmp_path / "summarize.json"
    config.write_text(json.dumps({"signatures_csv": "sig.csv", "budget": 2}))
    tracer = Tracer()
    tracer.install()
    try:
        code = vigil.cli.main(["summarize", "--config", str(config),
                               "--out", str(tmp_path / "out"), "--quiet"])
    finally:
        tracer.uninstall()
    assert code == 0
    assert tracer.calls["summarize.model_build"] == 1


# ---------------------------------------------------------------------------
# the worked 3-item instance


HAND_S = np.array([[1.0, 0.9, 0.1],
                   [0.9, 1.0, 0.2],
                   [0.1, 0.2, 1.0]])


def _gains_after(model, picked) -> list:
    """Each item's marginal gain once *picked* are added, in item order."""
    state = model.new_state()
    for j in picked:
        model.add(state, j)
    return [model.gain(state, j) for j in range(model.n)]


def test_facility_location_hand_values():
    model = FacilityLocation(HAND_S)
    # f({1}) = 0.9 + 1.0 + 0.2, f({0}) = 2.0, f({2}) = 1.3
    assert _gains_after(model, []) == pytest.approx([2.0, 2.1, 1.3])
    # f({1, 2}) = 0.9 + 1.0 + 1.0; item 1 adds nothing to itself
    assert _gains_after(model, [1]) == pytest.approx([0.1, 0.0, 0.8])


def test_greedy_picks_on_hand_instance():
    model = FacilityLocation(HAND_S)
    steps = lazy_greedy_trace(model, 2)
    assert [s.item for s in steps] == [1, 2]
    assert steps[0].gain == pytest.approx(2.1)
    assert steps[0].cumulative == pytest.approx(2.1)
    assert steps[1].gain == pytest.approx(0.8)
    assert steps[1].cumulative == pytest.approx(2.9)
    assert [s.rank for s in steps] == [1, 2]


def test_tie_breaks_to_lowest_index():
    S = np.ones((4, 4))                      # all items identical
    steps = lazy_greedy_trace(FacilityLocation(S), 3)
    assert [s.item for s in steps] == [0, 1, 2]
    assert steps[1].gain == 0.0


# ---------------------------------------------------------------------------
# greedy properties vs. exhaustive enumeration


def test_greedy_against_exhaustive_optimum():
    rnd = random.Random(60)
    for trial in range(40):
        n = rnd.randint(4, 10)
        k = rnd.randint(1, 3)
        S = random_similarity(rnd, n)
        model = FacilityLocation(S)
        picks = [s.item for s in lazy_greedy_trace(model, k)]
        got = facility_location_value(S, picks)
        opt, _ = best_subset(lambda X: facility_location_value(S, X), n, k)
        assert got >= (1.0 - 1.0 / math.e) * opt - 1e-12, trial
        assert got <= opt + 1e-12


def test_monotone_and_diminishing_returns():
    rnd = random.Random(61)
    for _ in range(60):
        n = rnd.randint(3, 9)
        S = random_similarity(rnd, n)
        for model_cls in (FacilityLocation, SaturatedCoverage):
            model = model_cls(S)
            A = sorted(rnd.sample(range(n), rnd.randint(0, n - 1)))
            extra = rnd.choice([j for j in range(n) if j not in A])
            B = sorted(set(A) | {extra,
                                 rnd.choice([j for j in range(n)
                                             if j not in A and j != extra] or [extra])})
            e = rnd.choice([j for j in range(n) if j not in B] or
                           [j for j in range(n) if j not in A])
            gains_A, gains_B = _gains_after(model, A), _gains_after(model, B)
            assert min(gains_A + gains_B) >= -1e-12       # monotone
            if e not in A and e not in B and set(A) <= set(B):
                assert gains_A[e] >= gains_B[e] - 1e-12   # diminishing returns


def test_saturated_coverage_caps():
    S = np.array([[1.0, 1.0, 0.0],
                  [1.0, 1.0, 0.0],
                  [0.0, 0.0, 1.0]])
    model = SaturatedCoverage(S, alpha=0.5)
    # item totals: 2, 2, 1 -> caps 1, 1, 0.5
    assert _gains_after(model, [])[0] == pytest.approx(2.0)  # min(1,1)+min(1,1)+0
    # adding the twin brings nothing: both rows already saturated
    assert _gains_after(model, [0]) == pytest.approx([0.0, 0.0, 0.5])
    assert 2.0 + 0.5 == pytest.approx(saturated_coverage_value(S, [0, 2], alpha=0.5))


def test_saturated_coverage_matches_oracle():
    rnd = random.Random(62)
    for _ in range(30):
        n = rnd.randint(3, 8)
        S = random_similarity(rnd, n)
        model = SaturatedCoverage(S, alpha=0.5)
        X = rnd.sample(range(n), rnd.randint(1, n))
        # each gain adds one item to the prefix before it
        state, total = model.new_state(), 0.0
        for i, j in enumerate(X):
            gain = model.gain(state, j)
            assert gain == pytest.approx(saturated_coverage_value(S, X[:i + 1])
                                         - saturated_coverage_value(S, X[:i]), abs=1e-12)
            model.add(state, j)
            total += gain
        assert total == pytest.approx(saturated_coverage_value(S, X), abs=1e-12)


# ---------------------------------------------------------------------------
# lazy evaluation


def test_lazy_equals_naive_everywhere():
    rnd = random.Random(63)
    for trial in range(60):
        n = rnd.randint(2, 14)
        k = rnd.randint(1, n)
        S = random_similarity(rnd, n)
        for model_cls in (FacilityLocation, SaturatedCoverage):
            naive = greedy_trace(model_cls(S), k)
            lazy = lazy_greedy_trace(model_cls(S), k)
            assert [s.item for s in naive] == [s.item for s in lazy], trial
            for a, b in zip(naive, lazy):
                assert a.gain == pytest.approx(b.gain, abs=1e-12)
                assert a.cumulative == pytest.approx(b.cumulative, abs=1e-12)


@pytest.mark.parametrize("on_demand", [False, True])
def test_lazy_equals_naive_bitwise_on_facility_location_ties(monkeypatch, on_demand):
    # facility location's computed gains never grow as the selection grows,
    # so lazy greedy must give naive greedy's whole trace, ties included
    if on_demand:
        monkeypatch.setattr(summarize, "SIM_PRECOMPUTE_BYTES", 0)
    rng = np.random.default_rng(65)
    instances, tied = [], 0
    for _ in range(100):
        n, d = int(rng.integers(2, 25)), int(rng.integers(1, 5))
        sigs = rng.random((n, d))
        sigs = np.round(sigs / sigs.sum(axis=1, keepdims=True), 1)
        tied += len(np.unique(sigs, axis=0)) < n
        instances += [{"signatures": sigs},
                      {"signatures": np.tile(sigs[0], (n, 1))}]  # all similarities 1
        if not on_demand:  # an explicit matrix is always cached
            instances.append({"matrix": np.full((n, n), round(rng.random(), 1))})
    assert tied > 50
    for given in instances:
        lazy_model = FacilityLocation(**given)
        assert (lazy_model._S is None) == on_demand
        k = int(rng.integers(1, lazy_model.n + 1))
        assert lazy_greedy_trace(lazy_model, k) == greedy_trace(FacilityLocation(**given), k)


def test_lazy_does_fewer_gain_evaluations():
    rnd = random.Random(64)
    total_naive = total_lazy = 0
    for _ in range(20):
        n = rnd.randint(8, 14)
        S = random_similarity(rnd, n)
        m1 = FacilityLocation(S)
        greedy_trace(m1, 4)
        m2 = FacilityLocation(S)
        lazy_greedy_trace(m2, 4)
        assert m2.gain_evals <= m1.gain_evals
        total_naive += m1.gain_evals
        total_lazy += m2.gain_evals
    assert total_lazy < total_naive


def test_budget_beyond_ground_set_truncates():
    S = random_similarity(random.Random(1), 5)
    steps = lazy_greedy_trace(FacilityLocation(S), 50)
    assert len(steps) == 5
    assert sorted(s.item for s in steps) == list(range(5))
    assert DEFAULT_BUDGET == 500


# ---------------------------------------------------------------------------
# CSV round trips


def test_selection_csv_format(tmp_path):
    ground = GroundSet([f"f{i}.ppm" for i in range(3)], np.eye(3))
    steps = lazy_greedy_trace(FacilityLocation(np.eye(3)), 2)
    path = tmp_path / "selection.csv"
    write_selection_csv(path, ground, steps)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "rank,item_id,marginal_gain,cumulative_f"
    assert lines[1].startswith("1,f0.ppm,")
    assert len(lines) == 3


def test_signature_csv_round_trip(tmp_path):
    rnd = np.random.default_rng(9)
    sigs = rnd.random((4, 10))
    sigs /= sigs.sum(axis=1, keepdims=True)
    ground = GroundSet([f"img{i}" for i in range(4)], sigs)
    path = tmp_path / "signatures.csv"
    write_signature_csv(path, ground)
    back = ground_set_from_csv(path)
    assert back.item_ids == ground.item_ids
    assert np.allclose(back.signatures, sigs, atol=1e-12)


def test_csv_normalizes_and_validates(tmp_path):
    path = tmp_path / "sig.csv"
    path.write_text("a,2,0,2\nb,0,0,5\n")
    ground = ground_set_from_csv(path)
    assert np.allclose(ground.signatures[0], [0.5, 0.0, 0.5])
    assert np.allclose(ground.signatures[1], [0.0, 0.0, 1.0])

    bad = tmp_path / "bad.csv"
    bad.write_text("a,1,2\nb,1\n")
    with pytest.raises(DataError):
        ground_set_from_csv(bad)
    neg = tmp_path / "neg.csv"
    neg.write_text("a,1,-2\n")
    with pytest.raises(DataError):
        ground_set_from_csv(neg)
    dim = tmp_path / "dim.csv"
    dim.write_text("a,1,2\nb,1,2,3\n")
    with pytest.raises(DataError):
        ground_set_from_csv(dim)


def test_csv_normalization_matches_per_row_reference(tmp_path):
    # the rows are checked and divided as one matrix; every quotient must
    # still be the one the row's own division gives, bit for bit
    rnd = np.random.default_rng(4)
    rows = rnd.random((40, 37)) * rnd.choice([1e-300, 1e-8, 1.0, 1e8, 1e300], size=(40, 1))
    rows[rnd.random(rows.shape) < 0.5] = 0.0
    rows[5] = 0.0
    rows[6, :2] = [5e-324, 1e308]
    path = tmp_path / "sig.csv"
    path.write_text("".join(f"i{i}," + ",".join(map(repr, row)) + "\n"
                            for i, row in enumerate(rows.tolist())))
    got = ground_set_from_csv(path).signatures
    assert got.tobytes() == signature_rows_reference(rows).tobytes()


def test_build_model_kinds():
    ground = GroundSet(["a", "b"], np.eye(2))
    assert isinstance(build_model("facility-location", ground), FacilityLocation)
    assert isinstance(build_model("saturated-coverage", ground, alpha=0.7),
                      SaturatedCoverage)
    for kind in ("coverage-maximal", "Facility_Location"):  # CLI names only
        with pytest.raises(ValueError):
            build_model(kind, ground)
