"""Training-sample construction for both learner families."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

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
    """Feature arity (at least 1) of a non-empty training set whose samples all share it."""
    if not samples:
        raise LearnError("no training data", "need at least one sample")
    arity = len(samples[0].features)
    if arity < 1:
        raise LearnError("feature arity", "samples have no features")
    for s in samples:
        if len(s.features) != arity:
            raise LearnError("feature arity", f"expected arity {arity}, got {len(s.features)}")
    return arity


def best_versions(matrix: SpeedupMatrix, candidates: Sequence[int], code_sizes: dict[int, int]) -> list[int]:
    """Argmax-speedup version of every dataset column, in column order.

    ``candidates`` must include the baseline if it is eligible. Ties go to
    the smaller code_size, then the smaller id: ``argmax`` keeps the first
    maximum, and the rows are in that order.
    """
    ordered = sorted(candidates, key=lambda v: (code_sizes.get(v, 0), v))
    rows = matrix.entries[matrix.row_positions(ordered)]
    return [ordered[k] for k in rows.argmax(axis=0).tolist()]


def make_dc_labels(
    scenario: Scenario,
    matrix: SpeedupMatrix,
    representative: Iterable[int],
) -> list[LabeledSample]:
    """One labeled sample per dataset.

    The label is the speedup argmax over the representative set (candidates
    only) plus the baseline every set ships (s = 1.0), tie-broken by smaller
    code_size then smaller id. Features come straight from the dataset table.
    """
    if matrix.dataset_ids != scenario.dataset_ids:
        raise LearnError("dataset mismatch", "matrix and scenario list different datasets")
    pool = matrix.representative(representative, LearnError) + (matrix.baseline_id,)
    labels = best_versions(matrix, pool, scenario.code_sizes())
    return [LabeledSample(d.features, label) for d, label in zip(scenario.datasets, labels)]


def make_ppm_samples(scenario: Scenario, matrix: SpeedupMatrix, version_id: int) -> list[RegressionSample]:
    """Per-version regression pairs: features -> ln s(version, d)."""
    if matrix.dataset_ids != scenario.dataset_ids:
        raise LearnError("dataset mismatch", "matrix and scenario list different datasets")
    logs = matrix.log_entries[matrix.row_positions(matrix.representative([version_id], LearnError))[0]]
    return [
        RegressionSample(features=d.features, target=float(logs[i]))
        for i, d in enumerate(scenario.datasets)
    ]
