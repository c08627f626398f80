"""Deterministic pseudo-random generator used for all seeded steps.

The generator is SplitMix64 (Steele, Lea, Flood 2014; public domain in
Vigna's reference implementation). It is pinned here, independent of any
library default, so that seeded fixtures and golden files stay byte-stable
across library versions and platforms.

Derived draws are defined on top of the raw 64-bit stream and are part of
the stability contract:

* ``random()``   -- top 53 bits scaled to [0, 1)
* ``uniform()``  -- affine map of ``random()``
* ``randint()``  -- ``next_u64() % span`` (modulo; bias is irrelevant here)
* ``normal()``   -- Box-Muller cosine branch, two uniforms per call
* ``shuffle()``  -- Fisher-Yates, descending, ``randint`` for the index
"""

from __future__ import annotations

import math

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class Rng:
    """SplitMix64 stream seeded with a 64-bit integer."""

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * (2.0**-53)

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in the inclusive range [lo, hi]."""
        if hi < lo:
            raise ValueError(f"empty integer range [{lo}, {hi}]")
        return lo + self.next_u64() % (hi - lo + 1)

    def normal(self, mu: float = 0.0, sigma: float = 1.0) -> float:
        """Gaussian draw via Box-Muller (cosine branch, sine discarded)."""
        u1 = 1.0 - self.random()  # (0, 1], keeps log finite
        u2 = self.random()
        z = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
        return mu + sigma * z

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(0, i)
            items[i], items[j] = items[j], items[i]


def mix_seed(seed: int, salt: int) -> int:
    """Stable derived seed for sub-streams (e.g. one per CV fold)."""
    rng = Rng((seed ^ (salt * _GAMMA)) & _MASK64)
    return rng.next_u64()
