"""Deterministic pseudo-random generator used for all seeded steps.

The generator is SplitMix64 (Steele, Lea, Flood 2014; public domain in
Vigna's reference implementation). It is pinned here, independent of any
library default, so that seeded fixtures and golden files stay byte-stable
across library versions and platforms.

SplitMix64 is counter-based: output k of seed s is ``mix(s + k*GAMMA mod 2**64)``,
so ``u64s(n)`` computes a block in numpy uint64 arithmetic; that it equals ``n``
``next_u64()`` calls, state included, is part of the stability contract.

Derived draws are defined on top of the raw 64-bit stream and are part of
the stability contract:

* ``random()``   -- top 53 bits scaled to [0, 1)
* ``uniform()``  -- affine map of ``random()``
* ``randint()``  -- ``next_u64() % span`` (modulo; bias is irrelevant here)
* ``shuffle()``  -- Fisher-Yates, descending, ``next_u64() % (i + 1)`` for the index
* ``shuffled_prefix(n, m)`` -- ``shuffle(list(range(n)))[:m]``, from the same
  ``n - 1`` draws and leaving the same state
"""

from __future__ import annotations

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

    def u64s(self, n: int):
        """The next ``n`` outputs as a uint64 array, computed as one block."""
        import numpy as np  # here, so importing this module loads no numpy
        z = np.uint64(self._state) + np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GAMMA)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        self._state = (self._state + n * _GAMMA) & _MASK64
        return z ^ (z >> np.uint64(31))

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

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        import numpy as np
        n = len(items)
        js = self.u64s(max(n - 1, 0)) % np.arange(2, n + 1, dtype=np.uint64)[::-1]  # % (i + 1), i = n-1 .. 1
        for i, j in zip(range(n - 1, 0, -1), js.tolist()):
            items[i], items[j] = items[j], items[i]

    def shuffled_prefix(self, n: int, m: int) -> list[int]:
        """``shuffle(list(range(n)))[:m]`` without building or permuting the list; needs ``n * n < 2**63``.

        Step i swaps positions i and j_i <= i, so position k is final after step k (step 0 swaps nothing) and
        holds what position j_k held just before it. Position q holds, just before step t >= q, what position i
        held just before step i, for the least i > t with j_i = q, else q itself; sorted keys j_i * n + i find i.
        """
        import numpy as np
        draws = self.u64s(max(n - 1, 0)) % np.arange(n, 1, -1, dtype=np.uint64)  # j_i for i = n-1 .. 1
        j = np.concatenate(([0], draws[::-1].astype(np.int64)))  # j_i for i = 0 .. n-1
        keys = np.append(np.sort(j[1:] * n + np.arange(1, n)), n * n)  # the last key matches no position
        m = min(m, n)
        held, step, live = j[:m].copy(), np.arange(m), np.arange(m)  # position held[k] just before step[k]
        while live.size:
            key = keys[np.searchsorted(keys, held[live] * n + step[live] + 1)]
            hit = key // n == held[live]
            live, key = live[hit], key[hit]
            held[live] = step[live] = key % n
        return held.tolist()


def mix_seed(seed: int, salt: int) -> int:
    """Stable derived seed for sub-streams (e.g. one per CV fold)."""
    rng = Rng((seed ^ (salt * _GAMMA)) & _MASK64)
    return rng.next_u64()
