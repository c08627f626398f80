"""Ordinary least squares with an intercept, via the normal equations."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .samples import LearnError, RegressionSample, check_samples

RIDGE_JITTER = 1e-8  # diagonal boost applied only when the design is singular


@dataclass(frozen=True)
class LinearModel:
    intercept: float
    coefficients: tuple[float, ...]

    @property
    def arity(self) -> int:
        return len(self.coefficients)


def train_linear_regression(samples: Sequence[RegressionSample]) -> LinearModel:
    """Least-squares fit of target = intercept + coefficients . features.

    Solves the normal equations directly; a singular design (collinear or
    duplicated columns) gets a ridge jitter of 1e-8 on the diagonal, which
    always yields a finite solution.
    """
    check_samples(samples)
    design = np.hstack(
        [np.ones((len(samples), 1)), np.array([s.features for s in samples], dtype=float)]
    )
    targets = np.array([s.target for s in samples], dtype=float)
    gram = design.T @ design
    moment = design.T @ targets
    try:
        beta = np.linalg.solve(gram, moment)
        if not np.isfinite(beta).all():
            raise np.linalg.LinAlgError("non-finite solution")
    except np.linalg.LinAlgError:
        beta = np.linalg.solve(gram + RIDGE_JITTER * np.eye(gram.shape[0]), moment)
    return LinearModel(intercept=float(beta[0]), coefficients=tuple(float(b) for b in beta[1:]))


def predict_linear(model: LinearModel, x: Sequence[float]) -> float:
    if len(x) != model.arity:
        raise LearnError("feature arity", f"expected arity {model.arity}, got {len(x)}")
    return model.intercept + float(np.dot(model.coefficients, x))
