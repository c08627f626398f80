"""Adaptive-binary simulation: run a selector over a test scenario.

For every test dataset the selector picks a version, the test matrix
supplies the realized speedup, and the report compares the geometric mean
against two oracles: the "ideal" selector restricted to the shipped
representative set (a perfect predictor) and the unrestricted full
oracle over every measured version. A pick counts as wrong only when it
realizes less speedup than the in-set ideal for that dataset; picking a
different version that performs identically is not a mispick.

Both oracles are column-wise over the speedup matrix, the in-set one an
argmax (see ``best_versions``) and the full one a maximum. Every speedup
lookup is O(1), so a run costs O(D) lookups plus the selector's own work
over D test datasets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from .dispatch import DispatcherSpec, DispatchError, eval_dispatcher
from .learners.ppm import Regressor, ppm_select
from .learners.samples import best_versions
from .scenario import Scenario, SpeedupMatrix, speedups

ORACLE = "oracle"
BASELINE = "baseline"

MISPICK_SLACK = 1e-12  # relative; absorbs float noise in speedup equality

Selector = DispatcherSpec | Mapping[int, Regressor] | str | Callable[[Sequence[float]], int]


@dataclass(frozen=True)
class DatasetOutcome:
    dataset_id: int
    chosen: int
    realized_speedup: float
    comparisons: int


@dataclass(frozen=True)
class SimulationReport:
    """End-to-end quality of one selector on one test scenario."""

    outcomes: tuple[DatasetOutcome, ...]
    geomean_realized: float
    representative_geomean: float
    full_oracle_geomean: float
    fraction_of_representative_oracle: float
    fraction_of_full_oracle: float
    mispick_rate: float
    mean_comparisons: float
    selector_growth: float  # dispatcher bytes / baseline binary size; 0 without a dispatcher
    multiversioning_growth: float  # summed representative code sizes / baseline binary size
    train_overlap: tuple[int, ...]
    selector_kind: str


def _geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


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
        realized = matrix.speedup(chosen, d.id)
        best_in_set = matrix.speedup(in_set[i], d.id)
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
