"""Adaptive-binary simulation: run a selector over a test scenario.

For every test dataset the selector picks a version, the test matrix
supplies the realized speedup, and the report compares the geometric mean
against two oracles: the "ideal" selector restricted to the shipped
representative set (a perfect predictor) and the unrestricted full
oracle over every measured version. A pick counts as wrong only when it
realizes less speedup than the in-set ideal for that dataset; picking a
different version that performs identically is not a mispick.

Both oracles are column-wise over the speedup matrix, the in-set one an
argmax (see ``best_versions``) and the full one a maximum. Test dataset i
is scored on column i, whatever its id: the realized and the in-set
speedups of all D datasets are one gather each, so a run costs O(D) plus
the selector's own work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from .dispatch import DispatcherSpec, DispatchError, eval_dispatcher
from .learners.samples import LearnError, best_versions
from .scenario import Scenario, speedups

if TYPE_CHECKING:
    from .learners.cv import Regressor

ORACLE = "oracle"
BASELINE = "baseline"

MISPICK_SLACK = 1e-12  # relative; absorbs float noise in speedup equality

Selector = DispatcherSpec | Mapping[int, "Regressor"] | str | Callable[[Sequence[float]], int]


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


def simulate(
    scenario_test: Scenario,
    selector: Selector,
    representative: set[int] | frozenset[int] | Sequence[int],
    train_dataset_ids: set[int] | frozenset[int] | None = None,
) -> SimulationReport:
    """Drive the selector across every test dataset and score it.

    ``representative`` is the shipped set (baseline excluded, implicitly
    available); the dispatcher or PPM models must only ever pick inside
    it; a PPM bundle needs a model for each of them, and others are ignored.
    ``train_dataset_ids`` enables the train/test overlap check the report
    carries (overlapping ids are reported, not rejected).
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
    features = [d.features for d in scenario_test.datasets]
    comparisons = [0] * len(features)
    spec = selector if isinstance(selector, DispatcherSpec) else None
    if spec is not None:
        kind = "dispatcher"
        stray = spec.leaf_versions() - allowed
        if stray:
            raise DispatchError(
                "unknown version",
                f"dispatcher can choose versions {sorted(stray)} outside the representative set",
            )
        walks = [eval_dispatcher(spec, x) for x in features]
        chosen = [version for version, _ in walks]
        comparisons = [count for _, count in walks]
    elif isinstance(selector, str):
        if selector not in (ORACLE, BASELINE):
            raise DispatchError("unknown selector", f"selector {selector!r} is not recognized")
        kind = selector
        chosen = in_set if selector == ORACLE else [matrix.baseline_id] * len(features)
    elif isinstance(selector, Mapping):
        from .learners.ppm import ppm_select  # the learners load only for a bundle
        kind = "ppm"
        if missing := [v for v in rep if v not in selector]:
            raise LearnError("model incomplete", f"no model for representative version {missing[0]}")
        models = {v: selector[v] for v in rep}
        chosen = [ppm_select(models, x, code_sizes, matrix.baseline_id) for x in features]
    else:
        kind = "callable"
        chosen = [selector(x) for x in features]
    for version in chosen:
        if version not in allowed:
            raise DispatchError(
                "unknown version",
                f"selector chose version {version}, not in the representative set or baseline",
            )

    # Test dataset i is column i of the matrix, whatever its id.
    columns = range(len(features))
    realized = matrix.entries[matrix.row_positions(chosen), columns].tolist()
    ideal = matrix.entries[matrix.row_positions(in_set), columns].tolist()
    mispicks = sum(r < best * (1.0 - MISPICK_SLACK) for r, best in zip(realized, ideal))
    outcomes = tuple(map(DatasetOutcome, scenario_test.dataset_ids, chosen, realized, comparisons))

    geomean_realized = _geomean(realized)
    rep_geomean = _geomean(ideal)
    full_geomean = _geomean(matrix.entries.max(axis=0))
    overlap: tuple[int, ...] = ()
    if train_dataset_ids is not None:
        overlap = tuple(sorted(set(scenario_test.dataset_ids) & set(train_dataset_ids)))
    return SimulationReport(
        outcomes=outcomes,
        geomean_realized=geomean_realized,
        representative_geomean=rep_geomean,
        full_oracle_geomean=full_geomean,
        fraction_of_representative_oracle=geomean_realized / rep_geomean,
        fraction_of_full_oracle=geomean_realized / full_geomean,
        mispick_rate=mispicks / len(outcomes),
        mean_comparisons=sum(comparisons) / len(outcomes),
        selector_growth=(spec.byte_size if spec is not None else 0) / baseline_size,
        multiversioning_growth=sum(code_sizes[v] for v in rep) / baseline_size,
        train_overlap=overlap,
        selector_kind=kind,
    )
