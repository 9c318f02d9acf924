"""Seeded generator: stream stability, draw accounting, distribution sanity."""

import random

import pytest

from vigil.rng import Rng, derive_seed

from oracles import RngReference


# Frozen outputs: the whole point of an in-package generator is that these
# never change across platforms or versions.  Do not update casually.
GOLDEN_U64 = [1546998764402558742, 6990951692964543102, 12544586762248559009]
GOLDEN_UNIFORM = [0.08386297105988216, 0.3789802506626686, 0.6800434110281394]
GOLDEN_NORMAL = [-0.303263064678738, 1.3438117634372806]
GOLDEN_RANDINT10 = [0, 3, 6, 9, 9, 7, 7, 8]
GOLDEN_POISSON3 = [1, 9, 7, 1, 3, 3]


def test_golden_streams():
    assert [Rng(42).next_u64() for _ in range(1)][0] == GOLDEN_U64[0]
    r = Rng(42)
    assert [r.next_u64() for _ in range(3)] == GOLDEN_U64
    r = Rng(42)
    assert [r.uniform() for _ in range(3)] == GOLDEN_UNIFORM
    r = Rng(42)
    assert [r.normal() for _ in range(2)] == GOLDEN_NORMAL
    r = Rng(42)
    assert [r.randint(10) for _ in range(8)] == GOLDEN_RANDINT10
    r = Rng(42)
    assert [r.poisson(3.0) for _ in range(6)] == GOLDEN_POISSON3
    assert derive_seed(42, "synthetic-scene") == 2678328037359348001
    assert derive_seed(42, "augment") == 10473606327886031568


def test_same_seed_same_stream():
    a, b = Rng(123), Rng(123)
    assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]


def test_different_seeds_differ():
    a = [Rng(1).next_u64() for _ in range(4)]
    b = [Rng(2).next_u64() for _ in range(4)]
    assert a != b


def test_uniform_range_and_transform():
    r = Rng(9)
    for _ in range(2000):
        u = r.uniform()
        assert 0.0 <= u < 1.0
    r = Rng(9)
    for _ in range(500):
        x = r.uniform(-3.0, 7.0)
        assert -3.0 <= x < 7.0


def test_uniform_moments():
    r = Rng(31)
    n = 100_000
    xs = [r.uniform() for _ in range(n)]
    mean = sum(xs) / n
    var = sum((x - mean) ** 2 for x in xs) / n
    assert abs(mean - 0.5) < 0.005
    assert abs(var - 1.0 / 12.0) < 0.002


def test_normal_moments():
    r = Rng(202)
    n = 100_000
    xs = [r.normal() for _ in range(n)]
    mean = sum(xs) / n
    var = sum((x - mean) ** 2 for x in xs) / n
    assert abs(mean) < 0.02
    assert abs(var - 1.0) < 0.02
    skew = sum((x - mean) ** 3 for x in xs) / (n * var ** 1.5)
    assert abs(skew) < 0.05


def test_normal_consumes_two_uniforms_even_at_sigma_zero():
    a = Rng(77)
    got = a.normal(4.25, 0.0)
    assert got == 4.25                      # exactly mu, no rounding noise
    after_sigma0 = a.next_u64()
    b = Rng(77)
    b.uniform(), b.uniform()                # the two Box-Muller draws
    assert b.next_u64() == after_sigma0


def test_normal_affine_relation():
    # normal(mu, sigma) must equal mu + sigma * standard draw, stream-for-stream
    a, b = Rng(88), Rng(88)
    for _ in range(50):
        x = a.normal(2.0, 3.0)
        z = b.normal()
        assert x == pytest.approx(2.0 + 3.0 * z, rel=1e-12, abs=1e-12)


def test_poisson_zero_lambda_consumes_nothing():
    a = Rng(64)
    assert a.poisson(0.0) == 0
    b = Rng(64)
    assert a.next_u64() == b.next_u64()


def test_poisson_moments():
    r = Rng(404)
    n = 50_000
    lam = 2.5
    xs = [r.poisson(lam) for _ in range(n)]
    mean = sum(xs) / n
    var = sum((x - mean) ** 2 for x in xs) / n
    assert abs(mean - lam) < 0.05
    assert abs(var - lam) < 0.1
    assert min(xs) >= 0


def test_randint_range_and_coverage():
    r = Rng(11)
    seen = set()
    for _ in range(2000):
        k = r.randint(7)
        assert 0 <= k < 7
        seen.add(k)
    assert seen == set(range(7))
    with pytest.raises(ValueError):
        r.randint(0)


def test_sample_without_replacement():
    r = Rng(7)
    picked = r.sample_without_replacement(10, 4)
    assert picked == [7, 3, 8, 9]           # frozen
    assert len(set(picked)) == 4
    for _ in range(200):
        ks = r.sample_without_replacement(12, 5)
        assert len(set(ks)) == 5
        assert all(0 <= k < 12 for k in ks)
    assert sorted(r.sample_without_replacement(6, 6)) == list(range(6))
    with pytest.raises(ValueError):
        r.sample_without_replacement(3, 4)


def test_derive_seed_sensitivity():
    assert derive_seed(1, "a") != derive_seed(1, "b")
    assert derive_seed(1, "a") != derive_seed(2, "a")
    assert derive_seed(1, "ab") != derive_seed(1, "ba")
    # stable across calls
    assert derive_seed(9, "stage") == derive_seed(9, "stage")


def test_rng_matches_the_frozen_generator():
    # the inlined step on a tuple state draws what the list-state step with
    # its rotl helper drew, draw for draw, whatever the calls interleave
    gen = random.Random(1805)
    seeds = [0, -1, 2**64 - 1, 2**80] + [gen.randint(-2**70, 2**70) for _ in range(196)]
    calls = [
        ("next_u64", lambda: ()),
        ("uniform", lambda: ()),
        ("uniform", lambda: (gen.uniform(-1e3, 1e3), gen.uniform(-1e3, 1e3))),
        ("normal", lambda: (gen.uniform(-5.0, 5.0), gen.choice([0.0, 0.5, 3.0]))),
        ("randint", lambda: (gen.randint(1, 50),)),
        ("poisson", lambda: (gen.choice([0.0, 0.3, 2.5, 12.0]),)),
        ("sample_without_replacement", lambda: (gen.randint(0, 12), gen.randint(0, 4))),
    ]
    made = dict.fromkeys([name for name, _ in calls], 0)
    for seed in seeds:
        got, want = Rng(seed), RngReference(seed)
        for _ in range(60):
            name, args = gen.choice(calls)
            args = args()
            if name == "sample_without_replacement" and args[1] > args[0]:
                args = args[::-1]
            a, b = getattr(got, name)(*args), getattr(want, name)(*args)
            assert repr(a) == repr(b), (seed, name, args)
            made[name] += 1
    assert min(made.values()) >= 1000, made
