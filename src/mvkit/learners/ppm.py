"""Performance-prediction dispatch: per-version regressors from ``cv.train_model``, argmax select."""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from ..scenario import Scenario, SpeedupMatrix
from .cv import LearnerSpec, Regressor, predict_regression, train_model
from .samples import LearnError, make_ppm_samples


def train_ppm_models(
    spec: LearnerSpec, scenario: Scenario, matrix: SpeedupMatrix, representative: Iterable[int], seed: int | None = None
) -> dict[int, Regressor]:
    """One ln-speedup regressor of ``spec``'s algorithm per representative version.

    The baseline never gets a model; its prediction is the constant 0
    (ln 1) inside :func:`ppm_select`.
    """
    if spec.is_dc:
        raise LearnError("invalid config", f"{spec.algorithm!r} is a classifier, not a per-version regressor")
    return {v: train_model(spec, make_ppm_samples(scenario, matrix, v), seed) for v in sorted(representative)}


def ppm_select(models: Mapping[int, Regressor], x: Sequence[float], code_sizes: Mapping[int, int], baseline_id: int) -> int:
    """Pick the version with the highest predicted ln speedup at x.

    Every model competes, and the baseline with a constant prediction of
    0. Ties go to the smaller code_size, then the smaller id.
    """
    predictions = {baseline_id: 0.0} | {v: predict_regression(m, x) for v, m in models.items()}
    return min(predictions, key=lambda v: (-predictions[v], code_sizes.get(v, 0), v))
