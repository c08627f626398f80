"""`splits._cuts` against the two-sort version it replaced.

The oracle below keeps the earlier `midpoints` and `_cuts` verbatim: they
sorted each feature once for the sample order and a second time, through
`sorted(set(values))`, for the distinct values. The single sort must give,
on every NaN-free feature, the same sample order, the same thresholds bit
for bit, and the same left sizes. The value pool holds signed zeros,
subnormals, values whose midpoints overflow and infinities, whose midpoint
is NaN.
"""

import math
import random
from bisect import bisect_right
from typing import Sequence

import pytest

from mvkit.learners.splits import _cuts

# --- oracle: the two-sort candidates, verbatim ---------------------------------


def midpoints(values: Sequence[float]) -> list[float]:
    """Split candidates: midpoints of consecutive distinct sorted values."""
    distinct = sorted(set(values))
    return [(a + b) / 2.0 for a, b in zip(distinct, distinct[1:])]


def oracle_cuts(values: Sequence[float]) -> tuple[list[int], list[tuple[float, int]]]:
    """Sorted sample order of one feature, and each threshold with its left size.

    Left sizes never decrease along the list, because midpoints do not.
    """
    order = sorted(range(len(values)), key=values.__getitem__)
    ordered = [values[i] for i in order]
    return order, [(thr, bisect_right(ordered, thr)) for thr in midpoints(values)]


# -------------------------------------------------------------------------------

POOL = (0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 3.0, 1e308, 1.7e308, -1.7e308, 5e-324, -5e-324, math.inf, -math.inf)
CHUNKS = 20
LISTS_PER_CHUNK = 300  # 6,000 lists in all


def draw(rng: random.Random) -> list[float]:
    """1 to 30 values from 2, 3 or all of the pool's entries; ``None`` stands for uniform on (-3, 3).

    Small pools make neighbours of values the full pool keeps apart, such as -inf and inf.
    """
    pool = rng.sample(POOL + (None,), rng.choice((2, 3, len(POOL) + 1)))
    picks = [rng.choice(pool) for _ in range(rng.randint(1, 30))]
    return [rng.uniform(-3.0, 3.0) if v is None else v for v in picks]


def exact(cuts):
    order, pairs = cuts
    return order, [(thr.hex(), nl) for thr, nl in pairs]


@pytest.mark.parametrize("chunk", range(CHUNKS))
def test_the_single_sort_gives_the_two_sort_candidates(chunk):
    rng = random.Random(chunk)
    for _ in range(LISTS_PER_CHUNK):
        values = draw(rng)
        assert exact(_cuts(values)) == exact(oracle_cuts(values)), values


def test_the_draws_reach_every_awkward_case():
    """Signed zeros in both orders, overflowed and NaN midpoints, and midpoints rounded onto a value all occur."""
    seen = set()
    for chunk in range(CHUNKS):
        rng = random.Random(chunk)
        for _ in range(LISTS_PER_CHUNK):
            values = draw(rng)
            zeros = [math.copysign(1.0, v) for v in values if v == 0.0]
            if zeros and zeros[0] < 0 and 1.0 in zeros:
                seen.add("-0.0 first")
            if zeros and zeros[0] > 0 and -1.0 in zeros:
                seen.add("+0.0 first")
            thresholds = [thr for thr, _ in _cuts(values)[1]]
            seen |= {"inf midpoint" for thr in thresholds if math.isinf(thr)}
            seen |= {"nan midpoint" for thr in thresholds if math.isnan(thr)}
            seen |= {"midpoint on a value" for thr in thresholds if math.isfinite(thr) and thr in values}
    assert seen == {"-0.0 first", "+0.0 first", "inf midpoint", "nan midpoint", "midpoint on a value"}
