"""Training-sample construction for both learner families."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from ..errors import MvkitError

if TYPE_CHECKING:
    from ..scenario import Scenario, SpeedupMatrix


class LearnError(MvkitError):
    """Learner failure with a stable machine-checkable ``category``."""


@dataclass(frozen=True)
class LabeledSample:
    """Direct-classification pair: dataset features -> best version id."""

    features: tuple[float, ...]
    label: int


@dataclass(frozen=True)
class RegressionSample:
    """Performance-prediction pair: dataset features -> ln speedup of one version."""

    features: tuple[float, ...]
    target: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.target):
            raise LearnError("non-finite target", f"regression target is {self.target}")


def check_samples(samples: Sequence[LabeledSample] | Sequence[RegressionSample]) -> int:
    """Feature arity of a non-empty training set whose samples all share it."""
    if not samples:
        raise LearnError("no training data", "need at least one sample")
    arity = len(samples[0].features)
    for s in samples:
        if len(s.features) != arity:
            raise LearnError("feature arity", f"expected arity {arity}, got {len(s.features)}")
    return arity


def _tie_order(matrix: SpeedupMatrix, candidates: Sequence[int], sizes: dict[int, int]) -> tuple[list, list]:
    """Candidates by (code_size, id), and their rows in ``matrix``."""
    ordered = sorted(candidates, key=lambda v: (sizes.get(v, 0), v))
    return ordered, [matrix._version_index[v] for v in ordered]


def best_versions(matrix: SpeedupMatrix, candidates: Sequence[int], code_sizes: dict[int, int]) -> list[int]:
    """Argmax-speedup version of every dataset column, in column order.

    ``candidates`` must include the baseline if it is eligible. Ties go to
    the smaller code_size, then the smaller id: ``argmax`` keeps the first
    maximum, and the rows are in that order.
    """
    ordered, rows = _tie_order(matrix, candidates, code_sizes)
    return [ordered[k] for k in matrix.entries[rows].argmax(axis=0).tolist()]


def best_version(
    matrix: SpeedupMatrix,
    dataset_index: int,
    candidates: Sequence[int],
    code_sizes: dict[int, int],
) -> int:
    """:func:`best_versions` for the one column ``dataset_index``."""
    ordered, rows = _tie_order(matrix, candidates, code_sizes)
    return ordered[int(matrix.entries[rows, dataset_index].argmax())]


def make_dc_labels(
    scenario: Scenario,
    matrix: SpeedupMatrix,
    representative: set[int] | frozenset[int],
) -> list[LabeledSample]:
    """One labeled sample per dataset.

    The label is the speedup argmax over the representative set plus the
    always-available baseline (s = 1.0), tie-broken by smaller code_size
    then smaller id. Features come straight from the dataset table.
    """
    if matrix.dataset_ids != scenario.dataset_ids:
        raise LearnError("dataset mismatch", "matrix and scenario list different datasets")
    known = set(matrix.version_ids)
    for v in representative:
        if v not in known:
            raise LearnError("unknown version", f"representative version {v} not in matrix")
    pool = tuple(sorted(representative)) + (matrix.baseline_id,)
    labels = best_versions(matrix, pool, scenario.code_sizes())
    return [LabeledSample(d.features, label) for d, label in zip(scenario.datasets, labels)]


def make_ppm_samples(scenario: Scenario, matrix: SpeedupMatrix, version_id: int) -> list[RegressionSample]:
    """Per-version regression pairs: features -> ln s(version, d)."""
    if matrix.dataset_ids != scenario.dataset_ids:
        raise LearnError("dataset mismatch", "matrix and scenario list different datasets")
    if version_id not in matrix.version_ids:
        raise LearnError("unknown version", f"version {version_id} not in matrix")
    logs = matrix.log_row(version_id)
    return [
        RegressionSample(features=d.features, target=float(logs[i]))
        for i, d in enumerate(scenario.datasets)
    ]
