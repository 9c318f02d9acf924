"""Portable, seeded pseudo-random number generation.

Synthetic scenes and augmentation plans must be byte-identical across runs and
platforms, so randomness comes from a fixed generator specified by its
recurrence rather than from a host library whose stream may change:

* State expansion uses SplitMix64:
  ``state += 0x9E3779B97F4A7C15`` then ``z = state``;
  ``z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9``;
  ``z = (z ^ (z >> 27)) * 0x94D049BB133111EB``; ``z ^= z >> 31``
  (all arithmetic mod 2**64).
* The stream itself is xoshiro256**: output ``rotl(s1 * 5, 7) * 9``, then
  ``t = s1 << 17; s2 ^= s0; s3 ^= s1; s1 ^= s2; s0 ^= s3; s2 ^= t;
  s3 = rotl(s3, 45)``.

Derived quantities are likewise pinned down:

* ``uniform()`` takes the top 53 bits of one output, divided by 2**53.
* ``normal()`` consumes exactly two uniforms u1, u2 and returns
  ``sqrt(-2 ln(1 - u1)) * cos(2 pi u2)`` (Box-Muller, cosine branch only).
* ``poisson(lam)`` multiplies uniforms until the product drops below
  ``exp(-lam)`` (Knuth's method), so the draw count varies but is fully
  determined by the stream.
"""

from __future__ import annotations

import math

_MASK64 = 0xFFFFFFFFFFFFFFFF


def _splitmix64(state: int) -> tuple[int, int]:
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return state, z


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


def _fnv1a64(text: str) -> int:
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h ^= byte
        h = (h * 0x100000001B3) & _MASK64
    return h


def derive_seed(seed: int, label: str) -> int:
    """Derive a per-stage seed from a master seed and a stage label.

    Defined as one SplitMix64 output step on ``seed XOR fnv1a64(label)``.
    """
    _, z = _splitmix64((seed & _MASK64) ^ _fnv1a64(label))
    return z


class Rng:
    """xoshiro256** generator with the distribution helpers used in this package."""

    def __init__(self, seed: int):
        state = seed & _MASK64
        s = []
        for _ in range(4):
            state, z = _splitmix64(state)
            s.append(z)
        self._s = s

    def next_u64(self) -> int:
        s = self._s
        result = (_rotl((s[1] * 5) & _MASK64, 7) * 9) & _MASK64
        t = (s[1] << 17) & _MASK64
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = _rotl(s[3], 45)
        return result

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        u = (self.next_u64() >> 11) * (1.0 / (1 << 53))
        return lo + (hi - lo) * u

    def normal(self, mu: float = 0.0, sigma: float = 1.0) -> float:
        u1 = self.uniform()
        u2 = self.uniform()
        z = math.sqrt(-2.0 * math.log(1.0 - u1)) * math.cos(2.0 * math.pi * u2)
        return mu + sigma * z

    def randint(self, n: int) -> int:
        """Integer in [0, n), via floor(uniform * n)."""
        if n <= 0:
            raise ValueError("randint requires n > 0")
        k = int(self.uniform() * n)
        return min(k, n - 1)

    def poisson(self, lam: float) -> int:
        if lam < 0:
            raise ValueError("poisson rate must be >= 0")
        if lam == 0:
            return 0
        limit = math.exp(-lam)
        k = 0
        p = 1.0
        while True:
            p *= self.uniform()
            if p <= limit:
                return k
            k += 1

    def sample_without_replacement(self, n: int, k: int) -> list[int]:
        """k distinct indices from range(n), in selection order."""
        if k > n:
            raise ValueError("cannot sample more items than available")
        pool = list(range(n))
        picked = []
        for i in range(k):
            j = i + self.randint(n - i)
            pool[i], pool[j] = pool[j], pool[i]
            picked.append(pool[i])
        return picked
