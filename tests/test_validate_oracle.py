"""Validation by a record walk against the column masks it replaced.

The oracle below is the earlier ``validate_scenario`` with ``_id_fault``
and ``_repeats``, verbatim: it pads the feature vectors into one matrix,
stacks every table's checks into a fault mask and reads the violations
off ``np.argwhere``. On seeded broken scenarios both must return equal
violation lists: negative, repeated and very large ids, ragged and
non-finite features, missing, zero, negative and infinite runtimes, a
baseline count other than one, and fewer than 2 versions or no datasets.
"""

from __future__ import annotations

import math
from itertools import chain

import numpy as np
import pytest

from mvkit.rng import Rng, mix_seed
from mvkit.scenario import DatasetRecord, Scenario, Version, Violation
from mvkit.scenario import validate_scenario as new_validate_scenario

# --- oracle: the column-mask validate_scenario -----------------------------------


def validate_scenario(scenario: Scenario) -> list[Violation]:
    """Enumerate every invariant violation; an empty list means valid.

    Violations are data, not failures: the report is stably ordered by
    table (versions, datasets, runtimes, scenario) and then by id, so two
    runs over the same scenario produce identical reports. Each table's
    checks are columns of one fault mask, and ``np.argwhere`` walks a mask
    in row-major order, which is the report's order.
    """
    versions, datasets, runtimes = scenario.versions, scenario.datasets, scenario.runtimes
    violations: list[Violation] = []
    baseline_ids = sorted(v.id for v in versions if v.is_baseline)
    if len(baseline_ids) != 1:
        message = f"expected exactly 1 baseline, found {len(baseline_ids)}"
        violations.append(Violation("versions", tuple(baseline_ids), "baseline count", message))

    # Feature vectors padded with zeros into one matrix, so ragged ones are checked too.
    lengths = np.array([len(d.features) for d in datasets], dtype=np.intp)
    arity = int(lengths[0]) if datasets else 0
    present = np.arange(lengths.max(initial=0)) < lengths[:, None]
    values = np.zeros(present.shape)
    values[present] = list(chain.from_iterable(d.features for d in datasets))

    def version_fault(v: Version, k: int) -> tuple[tuple[int, ...], str, str]:
        if k < 2:
            return _id_fault("version", v.id, k)
        return (v.id,), "non-positive measurement", f"version {v.id} has code_size {v.code_size} < 1"

    def dataset_fault(d: DatasetRecord, k: int) -> tuple[tuple[int, ...], str, str]:
        if k < 2:
            return _id_fault("dataset", d.id, k)
        if k == 2:
            message = f"dataset {d.id} has arity {len(d.features)}, expected {max(arity, 1)}"
            return (d.id,), "feature arity", message
        return (d.id, k - 3), "non-finite feature", f"dataset {d.id} feature f{k - 3} is {d.features[k - 3]}"

    # Columns: negative id, repeated id, then the table's own checks.
    for table, records, checks, fault in (
        ("versions", versions, [[v.code_size < 1 for v in versions]], version_fault),
        ("datasets", datasets, [(lengths != arity) | (arity < 1), ~np.isfinite(values)], dataset_fault),
    ):
        ids = [r.id for r in records]
        mask = np.column_stack([[i < 0 for i in ids], _repeats(ids), *checks])
        violations.extend(Violation(table, *fault(records[i], k)) for i, k in np.argwhere(mask).tolist())

    for i, j in np.argwhere(~(np.isfinite(runtimes) & (runtimes > 0))).tolist():
        d, v, t = datasets[i].id, versions[j].id, runtimes[i, j]
        cell = f"runtime for (dataset {d}, version {v})"
        if math.isnan(t):
            violations.append(Violation("runtimes", (d, v), "incomplete matrix", f"{cell} is missing"))
        else:
            violations.append(Violation("runtimes", (d, v), "non-positive measurement", f"{cell} is {t}"))

    if len(versions) < 2 or len(datasets) < 1:
        message = f"need at least 2 versions and 1 dataset, found {len(versions)} and {len(datasets)}"
        violations.append(Violation("scenario", (), "scenario size", message))
    return violations


def _id_fault(noun: str, id_: int, k: int) -> tuple[tuple[int, ...], str, str]:
    if k == 0:
        return (id_,), "invalid id", f"{noun} id {id_} is negative"
    return (id_,), "duplicate id", f"{noun} id {id_} appears twice"


def _repeats(keys: list) -> np.ndarray:
    """Mask of the entries of ``keys`` equal to an earlier one; ids of any size compare exactly."""
    first = np.fromiter(map({}.setdefault, keys, range(len(keys))), dtype=np.intp, count=len(keys))
    return first != np.arange(len(keys))


# --- seeded broken scenarios -------------------------------------------------------

SEEDS = range(2400)
IDS = (-2, -1, 0, 1, 2**70, -(2**70))  # repeats the ids 0, 1, ... of valid records
FEATURES = (1.0, 0.0, -2.5, 7, math.nan, math.inf, -math.inf)  # the first 4 are valid
RUNTIMES = (1.0, 0.5, 2.25, 3.0, math.nan, 0.0, -1.0, math.inf, -math.inf)  # the first 4 are valid


def random_scenario(seed: int) -> Scenario:
    """A small scenario in which each choice is faulty with a chance set by the seed.

    A quarter of the seeds give valid scenarios; in the rest a choice is
    faulty one, two or three times in four: an id from ``IDS``, a flipped
    baseline flag, a code size below 1, a ragged or empty feature vector,
    a non-finite feature or runtime, a zero or negative runtime, or fewer
    than 2 versions or no datasets.
    """
    rng = Rng(mix_seed(6161, seed))
    chance = 2 * (seed % 4)

    def faulty() -> bool:
        return rng.randint(0, 7) < chance

    def pick(values: tuple, valid: int):
        return values[rng.randint(valid, len(values) - 1) if faulty() else rng.randint(0, valid - 1)]

    def record_id(k: int) -> int:
        return IDS[rng.randint(0, len(IDS) - 1)] if faulty() else k

    n_versions, n_datasets = rng.randint(0 if faulty() else 2, 5), rng.randint(0 if faulty() else 1, 6)
    base, arity = rng.randint(0, 4), 0 if faulty() else rng.randint(1, 3)
    versions = tuple(
        Version(record_id(k), f"v{k}", pick((50, 1, 0, -3), 2), (k == base % n_versions) != faulty())
        for k in range(n_versions)
    )
    datasets = tuple(
        DatasetRecord(record_id(k), tuple(pick(FEATURES, 4) for _ in range(rng.randint(0, 4) if faulty() else arity)))
        for k in range(n_datasets)
    )
    runtimes = np.array([[pick(RUNTIMES, 4) for _ in versions] for _ in datasets]).reshape(n_datasets, n_versions)
    return Scenario(versions, datasets, runtimes)


@pytest.mark.parametrize("block", range(0, len(SEEDS), 200))
def test_validate_scenario_matches_oracle(block):
    for seed in SEEDS[block : block + 200]:
        scenario = random_scenario(seed)
        assert new_validate_scenario(scenario) == validate_scenario(scenario), seed


def test_cases_cover_every_violation_category():
    """The seeded cases reach what the oracle comparison is meant to check."""
    counts: dict[tuple[str, str], int] = {}
    clean = 0
    for seed in SEEDS:
        found = validate_scenario(random_scenario(seed))
        clean += not found
        for v in found:
            counts[v.table, v.category] = counts.get((v.table, v.category), 0) + 1
    assert set(counts) == {
        ("versions", "baseline count"),
        ("versions", "invalid id"),
        ("versions", "duplicate id"),
        ("versions", "non-positive measurement"),
        ("datasets", "invalid id"),
        ("datasets", "duplicate id"),
        ("datasets", "feature arity"),
        ("datasets", "non-finite feature"),
        ("runtimes", "incomplete matrix"),
        ("runtimes", "non-positive measurement"),
        ("scenario", "scenario size"),
    }
    assert min(counts.values()) > 50 and clean > 10
