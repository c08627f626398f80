"""Bulk SplitMix64 draws against the scalar stream they must reproduce.

``Rng.u64s`` computes a block of outputs from the counter form of the
generator, and ``Rng.shuffle`` takes all of its indices from one block.
The oracle below is the scalar Fisher-Yates the shuffle replaced: one
``randint(0, i)`` per position, in descending order. ``Rng.shuffled_prefix``
is checked against the shuffle itself.
"""

import random

import pytest

from mvkit.rng import Rng

_draw = random.Random(20240611)
SEEDS = [0, 1, 2**64 - 1, *(_draw.getrandbits(64) for _ in range(20))]
COUNTS = [0, 1, 2, 1000]


def scalar_shuffle(rng: Rng, items: list) -> None:
    for i in range(len(items) - 1, 0, -1):
        j = rng.randint(0, i)
        items[i], items[j] = items[j], items[i]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", COUNTS)
def test_u64s_equals_scalar_draws(seed, n):
    bulk, scalar = Rng(seed), Rng(seed)
    block = bulk.u64s(n)
    assert block.shape == (n,)
    assert block.dtype.name == "uint64"
    assert block.tolist() == [scalar.next_u64() for _ in range(n)]
    assert bulk._state == scalar._state
    assert bulk.next_u64() == scalar.next_u64()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", COUNTS)
def test_shuffle_after_a_block_continues_the_stream(seed, n):
    bulk, scalar = Rng(seed), Rng(seed)
    bulk.u64s(n)
    for _ in range(n):
        scalar.next_u64()
    a, b = list(range(37)), list(range(37))
    bulk.shuffle(a)
    scalar_shuffle(scalar, b)
    assert a == b
    assert bulk.u64s(3).tolist() == [scalar.next_u64() for _ in range(3)]


@pytest.mark.parametrize("length", [*range(71), 100_000])
def test_shuffle_equals_scalar_fisher_yates(length):
    seed = 7919 * length + 3
    bulk, scalar = Rng(seed), Rng(seed)
    a, b = [f"x{i}" for i in range(length)], [f"x{i}" for i in range(length)]
    bulk.shuffle(a)
    scalar_shuffle(scalar, b)
    assert a == b
    assert bulk._state == scalar._state


@pytest.mark.parametrize("n", [*range(71), 100_000])
def test_shuffled_prefix_equals_the_shuffles_first_items(n):
    for m in sorted({0, 1, 2, n, n + 2}):
        seed = 104729 * n + m
        prefix, full = Rng(seed), Rng(seed)
        items = list(range(n))
        full.shuffle(items)
        assert prefix.shuffled_prefix(n, m) == items[:m]
        assert prefix._state == full._state
        assert prefix.u64s(3).tolist() == full.u64s(3).tolist()
