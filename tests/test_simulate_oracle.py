"""Simulation by column gathers against the per-dataset code it replaced.

The oracle below is the earlier ``simulate`` with its ``_selector_fn``
and the ``ppm_select`` that checked the bundle on every call, verbatim:
it turns every selector kind into a closure over the dataset
index and reads each realized and in-set speedup through ``speedup``,
the id-to-column lookup ``SpeedupMatrix`` once had. On seeded scenarios
with distinct dataset ids both must give equal reports, field by field,
for every selector kind, with picks tied to the in-set best, picks within
``MISPICK_SLACK`` of it and strictly worse picks all common, and equal
errors for a pick outside the representative set.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Mapping, Sequence

import numpy as np
import pytest

from mvkit.dispatch import Branch, DispatcherSpec, DispatchError, Leaf, eval_dispatcher
from mvkit.errors import MvkitError
from mvkit.learners.cv import LearnerSpec, Regressor, predict_regression
from mvkit.learners.ppm import train_ppm_models
from mvkit.learners.samples import LearnError, best_versions
from mvkit.rng import Rng, mix_seed
from mvkit.scenario import DatasetRecord, Scenario, SpeedupMatrix, Version, speedups
from mvkit.simulate import (
    BASELINE,
    MISPICK_SLACK,
    ORACLE,
    DatasetOutcome,
    Selector,
    SimulationReport,
    _geomean,
)
from mvkit.simulate import simulate as new_simulate

# --- oracle: the per-dataset simulate ------------------------------------------


def speedup(matrix: SpeedupMatrix, version_id: int, dataset_id: int) -> float:
    """The speedup of a version in the first column of a dataset id."""
    return float(matrix.entries[matrix.row_positions([version_id])[0], matrix.dataset_ids.index(dataset_id)])


def ppm_select(
    models: Mapping[int, Regressor],
    x: Sequence[float],
    code_sizes: Mapping[int, int],
    baseline_id: int,
    representative: set[int] | frozenset[int] | None = None,
) -> int:
    """Pick the version with the highest predicted ln speedup at x.

    The baseline competes with a constant prediction of 0. Ties go to the
    smaller code_size, then the smaller id. With ``representative`` given,
    a missing per-version model is an error rather than a silent skip.
    """
    wanted = set(representative) if representative is not None else set(models)
    for version in wanted:
        if version not in models:
            raise LearnError("model incomplete", f"no model for representative version {version}")
    predictions: dict[int, float] = {baseline_id: 0.0}
    for version in sorted(wanted):
        predictions[version] = predict_regression(models[version], x)
    return min(predictions, key=lambda v: (-predictions[v], code_sizes.get(v, 0), v))


def _selector_fn(
    selector: Selector,
    matrix: SpeedupMatrix,
    representative: tuple[int, ...],
    code_sizes: dict[int, int],
    in_set: list[int],
) -> tuple[Callable[[int, Sequence[float]], tuple[int, int]], str]:
    """Normalize every selector flavor to (dataset_index, features) -> (version, comparisons).

    The oracle picks ``in_set[i]``, the in-set best version of dataset ``i``.
    """
    if isinstance(selector, DispatcherSpec):
        return lambda i, x: eval_dispatcher(selector, x), "dispatcher"
    if isinstance(selector, str):
        if selector == ORACLE:
            return lambda i, x: (in_set[i], 0), ORACLE
        if selector == BASELINE:
            return lambda i, x: (matrix.baseline_id, 0), BASELINE
        raise DispatchError("unknown selector", f"selector {selector!r} is not recognized")
    if isinstance(selector, Mapping):
        return (
            lambda i, x: (
                ppm_select(selector, x, code_sizes, matrix.baseline_id, set(representative)),
                0,
            ),
            "ppm",
        )
    return lambda i, x: (selector(x), 0), "callable"


def simulate(
    scenario_test: Scenario,
    selector: Selector,
    representative: set[int] | frozenset[int] | Sequence[int],
    train_dataset_ids: set[int] | frozenset[int] | None = None,
) -> SimulationReport:
    """Drive the selector across every test dataset and score it.

    ``representative`` is the shipped set (baseline excluded, implicitly
    available); the dispatcher or PPM models must only ever pick inside
    it. ``train_dataset_ids`` enables the train/test overlap check the
    report carries (overlapping ids are reported, not rejected).
    """
    matrix = speedups(scenario_test)
    rep = tuple(sorted(set(representative)))
    for v in rep:
        if v not in matrix.version_ids:
            raise DispatchError(
                "unknown version", f"representative version {v} absent from test matrix"
            )
    baseline_size = scenario_test.baseline_binary_size
    if baseline_size <= 0:
        raise DispatchError("non-positive measurement", f"baseline binary size must be > 0, got {baseline_size}")
    code_sizes = scenario_test.code_sizes()
    allowed = frozenset(rep) | {matrix.baseline_id}
    in_set = best_versions(matrix, rep + (matrix.baseline_id,), code_sizes)
    choose, kind = _selector_fn(selector, matrix, rep, code_sizes, in_set)
    spec = selector if isinstance(selector, DispatcherSpec) else None
    if spec is not None:
        stray = spec.leaf_versions() - allowed
        if stray:
            raise DispatchError(
                "unknown version",
                f"dispatcher can choose versions {sorted(stray)} outside the representative set",
            )

    outcomes: list[DatasetOutcome] = []
    ideal: list[float] = []
    mispicks = 0
    for i, d in enumerate(scenario_test.datasets):
        chosen, comparisons = choose(i, d.features)
        if chosen not in allowed:
            raise DispatchError(
                "unknown version",
                f"selector chose version {chosen}, not in the representative set or baseline",
            )
        realized = speedup(matrix, chosen, d.id)
        best_in_set = speedup(matrix, in_set[i], d.id)
        if realized < best_in_set * (1.0 - MISPICK_SLACK):
            mispicks += 1
        ideal.append(best_in_set)
        outcomes.append(DatasetOutcome(d.id, chosen, realized, comparisons))

    geomean_realized = _geomean([o.realized_speedup for o in outcomes])
    rep_geomean = _geomean(ideal)
    full_geomean = _geomean(matrix.entries.max(axis=0))
    overlap: tuple[int, ...] = ()
    if train_dataset_ids is not None:
        overlap = tuple(sorted(set(scenario_test.dataset_ids) & set(train_dataset_ids)))
    return SimulationReport(
        outcomes=tuple(outcomes),
        geomean_realized=geomean_realized,
        representative_geomean=rep_geomean,
        full_oracle_geomean=full_geomean,
        fraction_of_representative_oracle=geomean_realized / rep_geomean,
        fraction_of_full_oracle=geomean_realized / full_geomean,
        mispick_rate=mispicks / len(outcomes),
        mean_comparisons=sum(o.comparisons for o in outcomes) / len(outcomes),
        selector_growth=(spec.byte_size if spec is not None else 0) / baseline_size,
        multiversioning_growth=sum(code_sizes[v] for v in rep) / baseline_size,
        train_overlap=overlap,
        selector_kind=kind,
    )


# --- seeded cases ----------------------------------------------------------------

SEEDS = range(240)
NEAR = 1.0 + 1e-13  # a runtime this much slower is a speedup within MISPICK_SLACK


def random_case(seed: int) -> tuple[Scenario, tuple[int, ...], frozenset[int]]:
    """A scenario with distinct dataset ids, a representative set and training ids.

    Runtimes are multiples of 1/4 in [0.25, 3], so equal speedups are
    common; on about a third of the datasets one candidate runs a hair
    slower than the fastest, a near-tie inside the mispick slack. Version
    and dataset ids are shuffled, so neither is in matrix order.
    """
    rng = Rng(mix_seed(5151, seed))
    n_cand, n_data, arity = rng.randint(1, 6), rng.randint(1, 24), rng.randint(1, 3)
    vids = list(range(0, 3 * (n_cand + 1), 3))
    rng.shuffle(vids)
    versions = tuple(Version(v, f"v{v}", 400 if k == 0 else 50 * rng.randint(1, 3), k == 0) for k, v in enumerate(vids))
    dids = list(range(5, 5 + 7 * n_data, 7))
    rng.shuffle(dids)
    datasets = tuple(DatasetRecord(d, tuple(float(rng.randint(0, 9)) for _ in range(arity))) for d in dids)
    runtimes = np.array([[rng.randint(1, 12) / 4.0 for _ in versions] for _ in datasets])
    for row in runtimes:
        if rng.randint(0, 2) == 0:
            row[rng.randint(1, n_cand)] = row.min() * NEAR
    rep = tuple(v for v in vids[1:] if rng.randint(0, 3))
    train = frozenset(dids[: rng.randint(0, n_data)] + [1000 + seed])
    return Scenario(versions, datasets, runtimes), rep, train


def random_dispatcher(seed: int, arity: int, leaves: Sequence[int]) -> DispatcherSpec:
    """A complete depth-2 tree over ``leaves`` with thresholds inside the feature range."""
    rng = Rng(mix_seed(5252, seed))
    branches = [Branch(rng.randint(0, arity - 1), rng.randint(0, 9) + 0.5, 2 * k + 1, 2 * k + 2) for k in range(3)]
    return DispatcherSpec(arity, (*branches, *(Leaf(leaves[rng.randint(0, len(leaves) - 1)]) for _ in range(4))))


def selectors(seed: int, scenario: Scenario, rep: tuple[int, ...]) -> list[Selector]:
    """Every selector kind; on every fifth seed the callable may pick outside the set."""
    base = scenario.baseline.id
    allowed = sorted({*rep, base})
    picks = sorted(scenario.version_ids) if seed % 5 == 0 else allowed
    algorithm = "linreg" if seed % 2 else "regtree"
    return [
        ORACLE,
        BASELINE,
        lambda x: picks[int(sum(x)) % len(picks)],
        random_dispatcher(seed, scenario.feature_arity, allowed),
        train_ppm_models(LearnerSpec(algorithm), scenario, speedups(scenario), rep),
    ]


def outcome(fn, *args):
    """``fn``'s report, or its error's type, category and message."""
    try:
        return fn(*args)
    except MvkitError as exc:
        return (type(exc).__name__, exc.category, str(exc))


@pytest.mark.parametrize("seed", SEEDS)
def test_simulate_matches_oracle(seed):
    scenario, rep, train = random_case(seed)
    for selector in selectors(seed, scenario, rep):
        new = outcome(new_simulate, scenario, selector, rep, train)
        old = outcome(simulate, scenario, selector, rep, train)
        if isinstance(old, tuple):
            assert new == old
            continue
        for f in dataclasses.fields(SimulationReport):
            assert getattr(new, f.name) == getattr(old, f.name), f.name


def test_cases_cover_ties_near_ties_mispicks_and_errors():
    """The seeded cases reach what the oracle comparison is meant to check."""
    kinds, tied, near, worse, errors = set(), 0, 0, 0, 0
    for seed in SEEDS:
        scenario, rep, train = random_case(seed)
        best = [o.realized_speedup for o in simulate(scenario, ORACLE, rep).outcomes]
        for selector in selectors(seed, scenario, rep):
            report = outcome(simulate, scenario, selector, rep, train)
            if isinstance(report, tuple):
                errors += 1
                continue
            kinds.add(report.selector_kind)
            for o, b in zip(report.outcomes, best):
                tied += o.realized_speedup == b
                near += b * (1.0 - MISPICK_SLACK) <= o.realized_speedup < b
                worse += o.realized_speedup < b * (1.0 - MISPICK_SLACK)
    assert kinds == {"oracle", "baseline", "callable", "dispatcher", "ppm"}
    assert tied > 100 and near > 20 and worse > 100 and errors > 5
    assert math.isclose(1.0 / NEAR, 1.0, rel_tol=MISPICK_SLACK)
