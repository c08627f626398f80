"""Seeded synthetic scenarios with planted feature-to-best-version structure.

The generator plants an axis-aligned grid over an integer feature box
(array-dimension-like inputs, default {1..32}^k): the box is split into
``n_regions`` cells by half-integer cuts, and each cell is owned by a
distinct non-baseline winner version. Winner cells draw speedups from the
winner range, everything else from the loser range; keeping the loser
range's top strictly below the winner range's bottom guarantees the
planted winner is the true argmax on every dataset. Runtimes then follow
as t(v, d) = base(d) / s(v, d), optionally wobbled by multiplicative
log-normal noise.

Half-integer cuts make the structure exactly recoverable: midpoints of
consecutive integer feature values are half-integers, so a decision tree
can reproduce every region boundary with zero error. All randomness comes
from the documented SplitMix64 generator in a fixed draw order, so one
seed always yields byte-identical tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import MvkitError
from .rng import Rng, mix_seed
from .scenario import DatasetRecord, Scenario, Version


class SynthError(MvkitError):
    """Generator configuration failure with a stable ``category``."""


# The widest feature range: each axis draws a uint64 per cut slot (at 10**7 slots a two-axis gen takes about
# 1.5 s and 350 MB of peak memory), and Rng.shuffled_prefix needs slots**2 < 2**63.
MAX_CUT_SLOTS = 10**7
# Planting draws every axis's whole cut-slot range, and each axis also costs about as much as 512 slots (one
# Rng.shuffled_prefix call, about 40 us). At most 2.5 * 10**7 such draws in all (features x (slots + 512)):
# a two-core Xeon took 1.6 s at that bound (two axes of 10**7 slots, or 46,040 of 31), and 44 s for 10**6 axes of 31.
AXIS_SLOTS = 512
MAX_PLANT_SLOTS = 25 * 10**6
# The largest tables one scenario holds: at 10**6 runtime cells (versions x datasets) and 10**6 feature cells
# (datasets x arity), a two-core Xeon took 6 to 10 s and at most 430 MB of peak memory per scenario.
MAX_RUNTIME_CELLS = MAX_FEATURE_CELLS = 10**6


def _check_cells(n_versions: int, n_datasets: int, arity: int) -> None:
    """Refuse a scenario past either cap before anything is drawn."""
    for what, cells, cap in (("runtime cells (versions x datasets)", n_versions * n_datasets, MAX_RUNTIME_CELLS),
                             ("feature cells (datasets x arity)", n_datasets * arity, MAX_FEATURE_CELLS)):
        if cells > cap:
            raise SynthError("invalid config", f"{cells} {what}, more than {cap}")


@dataclass(frozen=True)
class SynthConfig:
    """Shape and randomness knobs for one planted scenario.

    ``n_versions`` includes the baseline (id 0). ``n_regions`` cells need
    ``n_regions`` distinct winners, hence n_regions <= n_versions - 1.
    ``feature_range`` is the inclusive integer box features are drawn
    from; the loser range must sit strictly below the winner range so the
    planted winner really wins. Each axis of the :func:`_factor_regions` grid needs
    pieces - 1 of the ``hi - lo`` cut slots, so every config that builds can be planted.
    """

    n_versions: int
    n_datasets: int
    feature_arity: int
    n_regions: int
    seed: int
    winner_speedup_range: tuple[float, float] = (1.2, 2.0)
    loser_speedup_range: tuple[float, float] = (0.7, 1.1)
    noise_sigma: float = 0.0
    base_runtime_range: tuple[float, float] = (0.5, 2.0)
    code_size_range: tuple[int, int] = (1000, 5000)
    feature_range: tuple[int, int] = (1, 32)

    def __post_init__(self) -> None:
        if self.n_versions < 2:
            raise SynthError("invalid config", f"n_versions must be >= 2, got {self.n_versions}")
        if self.n_datasets < 1:
            raise SynthError("invalid config", f"n_datasets must be >= 1, got {self.n_datasets}")
        if self.feature_arity < 1:
            raise SynthError("invalid config", f"feature_arity must be >= 1, got {self.feature_arity}")
        _check_cells(self.n_versions, self.n_datasets, self.feature_arity)
        if not 1 <= self.n_regions <= self.n_versions - 1:
            raise SynthError(
                "invalid config",
                f"n_regions must be in [1, n_versions - 1] = [1, {self.n_versions - 1}], "
                f"got {self.n_regions}",
            )
        for name in ("winner_speedup_range", "loser_speedup_range", "base_runtime_range"):
            lo, hi = getattr(self, name)
            if not (math.isfinite(lo) and math.isfinite(hi) and 0 < lo <= hi):
                raise SynthError("invalid config", f"{name} must satisfy 0 < lo <= hi, got ({lo}, {hi})")
        if self.winner_speedup_range[0] <= 1.0:
            raise SynthError(
                "invalid config",
                f"winner speedups must exceed 1.0, got lo = {self.winner_speedup_range[0]}",
            )
        if self.loser_speedup_range[1] >= self.winner_speedup_range[0]:
            raise SynthError(
                "invalid config",
                "loser range top must stay strictly below winner range bottom "
                f"({self.loser_speedup_range[1]} >= {self.winner_speedup_range[0]})",
            )
        lo, hi = self.code_size_range
        if not 1 <= lo <= hi:
            raise SynthError("invalid config", f"code_size_range must satisfy 1 <= lo <= hi, got ({lo}, {hi})")
        lo, hi = self.feature_range
        if not (isinstance(lo, int) and isinstance(hi, int) and lo <= hi):
            raise SynthError("invalid config", f"feature_range must be an ordered integer pair, got ({lo}, {hi})")
        if hi - lo > MAX_CUT_SLOTS:
            raise SynthError("invalid config", f"feature_range spans {hi - lo} cut slots, more than {MAX_CUT_SLOTS}")
        plant = self.feature_arity * (hi - lo + AXIS_SLOTS)
        if plant > MAX_PLANT_SLOTS:
            raise SynthError(
                "invalid config",
                f"{self.feature_arity} features x ({hi - lo} cut slots + {AXIS_SLOTS}) is {plant} draws, more than {MAX_PLANT_SLOTS}",
            )
        if self.noise_sigma < 0 or not math.isfinite(self.noise_sigma):
            raise SynthError("invalid config", f"noise_sigma must be >= 0, got {self.noise_sigma}")
        cuts = max(_factor_regions(self.n_regions, self.feature_arity)) - 1
        if cuts > hi - lo:
            raise SynthError("invalid config", f"{self.n_regions} regions need {cuts} cuts on one axis, the range offers {hi - lo}")

    @cached_property
    def _planted(self) -> tuple:
        """:func:`_plant` once per config, for ``generate`` and ``generate_test``."""
        return _plant(self)


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """The planted structure: cuts, winners, and noiseless speedups.

    ``cuts[j]`` are the sorted half-integer boundaries along feature j;
    ``region_winners`` is indexed row-major over the per-axis cell
    indices; ``noiseless_speedups[v, d]`` aligns with the scenario's
    version and dataset order.
    """

    cuts: tuple[tuple[float, ...], ...]
    region_winners: tuple[int, ...]
    pieces: tuple[int, ...]
    noiseless_speedups: np.ndarray
    winners_by_dataset: tuple[int, ...]


def _region_index(cuts: Sequence[Sequence[float]], pieces: Sequence[int], features: Sequence[float]) -> int:
    """Row-major index of the cell of ``features``: per axis, the number of cuts it lies above."""
    index = 0
    for j, (axis_cuts, n_pieces) in enumerate(zip(cuts, pieces)):
        index = index * n_pieces + sum(1 for c in axis_cuts if features[j] > c)
    return index


def _factor_regions(n_regions: int, arity: int) -> list[int]:
    """Split n_regions into per-axis piece counts (row-major grid).

    Prime factors are assigned largest-first to the axis with the
    smallest current product (ties to the lower axis), keeping the grid
    as balanced as the factorization allows.
    """
    factors: list[int] = []
    n = n_regions
    p = 2
    while p * p <= n:
        while n % p == 0:
            factors.append(p)
            n //= p
        p += 1
    if n > 1:
        factors.append(n)
    pieces = [1] * arity
    for f in sorted(factors, reverse=True):
        target = min(range(arity), key=lambda j: (pieces[j], j))
        pieces[target] *= f
    return pieces


def _plant(config: SynthConfig) -> tuple[tuple[int, ...], tuple[tuple[float, ...], ...], tuple[int, ...], tuple[int, ...]]:
    """Structure draws: code sizes, cuts, and region winners.

    Uses its own sub-stream of the seed so a test scenario can replant
    the identical structure while drawing fresh datasets.
    """
    rng = Rng(mix_seed(config.seed, 1))
    sizes = tuple(rng.randint(*config.code_size_range) for _ in range(config.n_versions))
    pieces = _factor_regions(config.n_regions, config.feature_arity)
    lo, hi = config.feature_range
    cuts: list[tuple[float, ...]] = []
    for n_pieces in pieces:
        # Of the shuffled cut slots lo .. hi-1, the first n_pieces - 1; the cut after slot s sits at s + 0.5.
        cuts.append(tuple(lo + s + 0.5 for s in sorted(rng.shuffled_prefix(hi - lo, n_pieces - 1))))
    winners = tuple(1 + s for s in rng.shuffled_prefix(config.n_versions - 1, config.n_regions))
    return sizes, tuple(cuts), tuple(pieces), winners


def generate(config: SynthConfig) -> tuple[Scenario, GroundTruth]:
    """Build one scenario plus its ground truth; see the module docstring.

    Draw order (one SplitMix64 stream per stage, derived from the seed):
    structure = code sizes, then per-axis cut slots, then winner
    assignment; population = per dataset its features then its base
    runtime, then per dataset x version the speedup draw, then (only when
    noise_sigma > 0) per cell two uniforms u1, u2 for the noise factor
    exp(noise_sigma * z), z = sqrt(-2 ln(1 - u1)) cos(2 pi u2) (Box-Muller).
    """
    return _generate(config, population_seed=config.seed, id_offset=0, n_datasets=config.n_datasets)


def generate_test(
    config: SynthConfig,
    test_seed: int,
    n_datasets: int | None = None,
) -> tuple[Scenario, GroundTruth]:
    """Fresh datasets over the identical planted structure.

    Keeps the training scenario's versions, cuts, and winners (they come
    from ``config.seed``) while drawing features, runtimes, and noise from
    ``test_seed``. Test dataset ids always follow the training ids, so
    train/test overlap checks stay meaningful.
    """
    n_datasets = config.n_datasets if n_datasets is None else n_datasets
    if n_datasets < 1:
        raise SynthError("invalid config", f"n_datasets must be >= 1, got {n_datasets}")
    _check_cells(config.n_versions, n_datasets, config.feature_arity)
    return _generate(config, population_seed=test_seed, id_offset=config.n_datasets, n_datasets=n_datasets)


def _uniforms(draws: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """``Rng.uniform(lo, hi)`` of each draw, in the same IEEE operations; (0, 1) is ``random()``."""
    return lo + (hi - lo) * ((draws >> np.uint64(11)).astype(np.float64) * 2.0**-53)


def _generate(
    config: SynthConfig, population_seed: int, id_offset: int, n_datasets: int
) -> tuple[Scenario, GroundTruth]:
    sizes, cuts, pieces, winners = config._planted
    n_versions, arity = config.n_versions, config.feature_arity

    # One block of draws per stage of the documented order (see generate).
    rng = Rng(mix_seed(population_seed, 2))
    draws = rng.u64s(n_datasets * (arity + 1)).reshape(n_datasets, arity + 1)
    lo, span = config.feature_range[0], config.feature_range[1] - config.feature_range[0] + 1
    datasets = [DatasetRecord(id_offset + d, tuple(float(lo + z % span) for z in row))  # Python ints never wrap
                for d, row in enumerate(draws[:, :arity].tolist())]
    bases = _uniforms(draws[:, arity], *config.base_runtime_range)

    winners_by_dataset = [winners[_region_index(cuts, pieces, record.features)] for record in datasets]
    draws = rng.u64s(n_datasets * (n_versions - 1)).reshape(n_datasets, n_versions - 1)
    wins = np.arange(1, n_versions) == np.array(winners_by_dataset, dtype=np.intp).reshape(-1, 1)
    speedups = np.ones((n_versions, n_datasets))
    win, lose = (_uniforms(draws, *r) for r in (config.winner_speedup_range, config.loser_speedup_range))
    speedups[1:] = np.where(wins, win, lose).T

    runtimes = bases[:, None] / speedups.T
    if config.noise_sigma > 0:
        # In libm, per cell: numpy's transcendentals need not round the same.
        sigma, unit = config.noise_sigma, _uniforms(rng.u64s(runtimes.size * 2), 0.0, 1.0).tolist()
        try:
            factors = [math.exp(sigma * (math.sqrt(-2.0 * math.log(1.0 - a)) * math.cos(2.0 * math.pi * b)))
                       for a, b in zip(unit[0::2], unit[1::2])]
        except OverflowError:  # a factor past the float range
            factors = [math.inf] * runtimes.size
        with np.errstate(over="ignore"):
            runtimes *= np.reshape(factors, runtimes.shape)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        ratios = runtimes[:, :1] / runtimes  # the speedups `select` reads; nan, 0 or inf past a bad runtime
    if not ((ratios > 0) & (ratios < math.inf)).all():
        raise SynthError("invalid config", f"noise_sigma {config.noise_sigma} or a range makes a runtime or speedup 0 or inf")

    versions = tuple(
        Version(
            id=v,
            name="baseline" if v == 0 else f"v{v}",
            code_size=sizes[v],
            is_baseline=v == 0,
        )
        for v in range(n_versions)
    )
    scenario = Scenario(versions=versions, datasets=tuple(datasets), runtimes=runtimes)
    truth = GroundTruth(
        cuts=cuts,
        region_winners=winners,
        pieces=pieces,
        noiseless_speedups=speedups,
        winners_by_dataset=tuple(winners_by_dataset),
    )
    return scenario, truth


def ground_truth_table(truth: GroundTruth, scenario: Scenario) -> str:
    """The `dataset_id,true_best_version_id` CSV text."""
    rows = "".join(f"{d.id},{w}\n" for d, w in zip(scenario.datasets, truth.winners_by_dataset))
    return "dataset_id,true_best_version_id\n" + rows


def save_ground_truth(truth: GroundTruth, scenario: Scenario, path: str | Path) -> None:
    """Write ``ground_truth_table``, LF line ends."""
    Path(path).write_text(ground_truth_table(truth, scenario), encoding="utf-8", newline="\n")
