"""Block-drawn scenario generation against the scalar generator it replaced.

The oracle below is the earlier ``synthgen``: ``_plant`` with a scalar
Fisher-Yates, ``_generate`` drawing one ``next_u64`` at a time in the
documented order (with the earlier ``Rng.normal``), and the per-cell CSV
writers. For every config, the
training scenario and a held-out one must write the same bytes either way.
"""

import math
import random
from pathlib import Path

import numpy as np
import pytest

from mvkit.rng import Rng, mix_seed
from mvkit.scenario import DatasetRecord, Scenario, Version, save_scenario
from mvkit.synthgen import (
    GroundTruth,
    SynthConfig,
    SynthError,
    _factor_regions,
    _region_index,
    generate,
    generate_test,
    save_ground_truth,
)

# --- oracle: scalar draws and per-cell writers -----------------------------------


def _scalar_shuffle(rng, items):
    for i in range(len(items) - 1, 0, -1):
        j = rng.randint(0, i)
        items[i], items[j] = items[j], items[i]


def _normal(rng, mu, sigma):
    u1 = 1.0 - rng.random()
    u2 = rng.random()
    z = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
    return mu + sigma * z


def _plant(config):
    rng = Rng(mix_seed(config.seed, 1))
    sizes = [rng.randint(*config.code_size_range) for _ in range(config.n_versions)]
    pieces = _factor_regions(config.n_regions, config.feature_arity)
    lo, hi = config.feature_range
    cuts = []
    for n_pieces in pieces:
        slots = list(range(lo, hi))
        if n_pieces - 1 > len(slots):
            raise SynthError(
                "invalid config",
                f"axis needs {n_pieces - 1} cuts but the feature range offers {len(slots)}",
            )
        _scalar_shuffle(rng, slots)
        chosen = sorted(slots[: n_pieces - 1])
        cuts.append(tuple(s + 0.5 for s in chosen))
    candidates = list(range(1, config.n_versions))
    _scalar_shuffle(rng, candidates)
    winners = tuple(candidates[: config.n_regions])
    return sizes, tuple(cuts), tuple(pieces), winners


def _generate(config, population_seed, id_offset, n_datasets):
    sizes, cuts, pieces, winners = _plant(config)
    rng = Rng(mix_seed(population_seed, 2))
    lo, hi = config.feature_range
    datasets = []
    bases = []
    for d in range(n_datasets):
        features = tuple(float(rng.randint(lo, hi)) for _ in range(config.feature_arity))
        datasets.append(DatasetRecord(id=id_offset + d, features=features))
        bases.append(rng.uniform(*config.base_runtime_range))

    speedups = np.ones((config.n_versions, n_datasets))
    winners_by_dataset = []
    for d, record in enumerate(datasets):
        winner = winners[_region_index(cuts, pieces, record.features)]
        winners_by_dataset.append(winner)
        for v in range(1, config.n_versions):
            if v == winner:
                speedups[v, d] = rng.uniform(*config.winner_speedup_range)
            else:
                speedups[v, d] = rng.uniform(*config.loser_speedup_range)

    runtimes = np.empty((n_datasets, config.n_versions))
    for d in range(n_datasets):
        for v in range(config.n_versions):
            runtimes[d, v] = bases[d] / speedups[v, d]
    if config.noise_sigma > 0:
        for d in range(n_datasets):
            for v in range(config.n_versions):
                runtimes[d, v] *= math.exp(_normal(rng, 0.0, config.noise_sigma))

    versions = tuple(
        Version(id=v, name="baseline" if v == 0 else f"v{v}", code_size=sizes[v], is_baseline=v == 0)
        for v in range(config.n_versions)
    )
    scenario = Scenario(versions=versions, datasets=tuple(datasets), runtimes=runtimes)
    truth = GroundTruth(cuts, winners, pieces, speedups, tuple(winners_by_dataset))
    return scenario, truth


def _oracle_files(scenario, truth):
    versions = "id,name,code_size,is_baseline\n" + "".join(
        f"{v.id},{v.name},{v.code_size},{1 if v.is_baseline else 0}\n" for v in scenario.versions
    )
    datasets = "id," + ",".join(f"f{i}" for i in range(scenario.feature_arity)) + "\n" + "".join(
        f"{d.id}," + ",".join(repr(float(x)) for x in d.features) + "\n" for d in scenario.datasets
    )
    runtimes = "dataset_id,version_id,runtime_seconds\n"
    for i, d in enumerate(scenario.datasets):
        for j, v in enumerate(scenario.versions):
            runtimes += f"{d.id},{v.id},{float(scenario.runtimes[i, j])!r}\n"
    ground = "dataset_id,true_best_version_id\n"
    for record, winner in zip(scenario.datasets, truth.winners_by_dataset):
        ground += f"{record.id},{winner}\n"
    return [s.encode("utf-8") for s in (versions, datasets, runtimes, ground)]


def _written(scenario, truth, directory: Path):
    directory.mkdir()
    paths = [directory / name for name in ("v.csv", "d.csv", "r.csv", "g.csv")]
    save_scenario(scenario, *paths[:3])
    save_ground_truth(truth, scenario, paths[3])
    return [p.read_bytes() for p in paths]


# --- configs --------------------------------------------------------------------

# (config, test seed, test dataset count); None keeps the default.
NAMED = {
    "noisy": (SynthConfig(5, 60, 2, 4, seed=11, noise_sigma=0.2), 12, None),
    "arity 1": (SynthConfig(4, 40, 1, 3, seed=12, feature_range=(1, 64)), 13, 25),
    "arity 4": (SynthConfig(17, 50, 4, 16, seed=13, noise_sigma=0.05), 14, 70),
    "2 versions, 1 dataset": (SynthConfig(2, 1, 2, 1, seed=14), 15, 1),
    "1 region": (SynthConfig(6, 30, 3, 1, seed=15, noise_sigma=0.1), 16, 10),
    "negative features": (SynthConfig(4, 40, 2, 3, seed=16, feature_range=(-5, 5), noise_sigma=0.3), 17, None),
    "wide feature box": (SynthConfig(9, 30, 3, 8, seed=17, feature_range=(1, 100_000), noise_sigma=0.05), 18, 40),
    "300,000 cut slots per axis": (
        SynthConfig(7, 25, 2, 6, seed=22, feature_range=(-100_000, 200_000), noise_sigma=0.05), 23, 30
    ),
    "15 test datasets": (SynthConfig(5, 20, 2, 4, seed=18), 19, 15),
    "3 versions, noise 0.4": (SynthConfig(3, 20, 2, 2, seed=19, noise_sigma=0.4), 20, 20),
    "custom ranges": (
        SynthConfig(
            6, 35, 2, 5, seed=20, winner_speedup_range=(3.0, 9.5), loser_speedup_range=(0.01, 2.9),
            base_runtime_range=(1e-6, 250.0), code_size_range=(1, 3), feature_range=(0, 8),
        ),
        21, None,
    ),
}


def _random_config(seed: int):
    draw = random.Random(seed)
    n_versions = draw.randint(2, 12)
    arity = draw.randint(1, 4)
    lo = draw.randint(-20, 20)
    hi = lo + draw.randint(1, 40)
    regions = min(draw.randint(1, n_versions - 1), (hi - lo + 1) ** arity)
    config = SynthConfig(
        n_versions, draw.randint(1, 80), arity, regions, seed=draw.getrandbits(64),
        noise_sigma=draw.choice([0.0, 0.0, 0.05, 0.3]), feature_range=(lo, hi),
    )
    return config, draw.getrandbits(64), draw.choice([None, draw.randint(0, 90)])


CASES = {**NAMED, **{f"seeded {k}": _random_config(k) for k in range(30)}}


@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_gen_writes_the_scalar_generators_bytes(case, tmp_path):
    config, test_seed, n_test = case
    n = config.n_datasets if n_test is None else n_test
    expected = [
        _generate(config, config.seed, 0, config.n_datasets), _generate(config, test_seed, config.n_datasets, n)
    ]
    got = [generate(config), generate_test(config, test_seed, n_test)]
    for k, ((scenario, truth), (want_scenario, want_truth)) in enumerate(zip(got, expected)):
        assert _written(scenario, truth, tmp_path / str(k)) == _oracle_files(want_scenario, want_truth)
        assert np.array_equal(truth.noiseless_speedups, want_truth.noiseless_speedups)
        assert (truth.cuts, truth.region_winners, truth.pieces, truth.winners_by_dataset) == (
            want_truth.cuts, want_truth.region_winners, want_truth.pieces, want_truth.winners_by_dataset
        )
