"""Ordinary least squares with an intercept, via the normal equations, solved only in :func:`fit`."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .samples import LearnError, RegressionSample, check_samples

RIDGE_JITTER = 1e-8  # diagonal boost applied only when the design is singular


@dataclass(frozen=True)
class LinearModel:
    intercept: float
    coefficients: tuple[float, ...]

    @property
    def arity(self) -> int:
        return len(self.coefficients)

    @cached_property
    def coefficient_array(self):  # built on first use; not a field, so eq, repr and MVMODEL skip it
        import numpy as np
        return np.array(self.coefficients, dtype=float)


def fit(features, targets) -> LinearModel:
    """Least-squares fit of targets = intercept + coefficients . features, given as rows.

    Solves the normal equations directly; a singular design (collinear or
    duplicated columns) gets a ridge jitter of 1e-8 on the diagonal, and a
    fit still not finite after that (features that overflow) is refused.
    """
    import numpy as np  # here, not at the top: modelio loads this module for LinearModel alone

    design = np.hstack([np.ones((len(features), 1)), np.asarray(features, dtype=float)])
    with np.errstate(all="ignore"):  # an overflow shows as a non-finite beta
        gram = design.T @ design
        moment = design.T @ np.asarray(targets, dtype=float)
        for system in (gram, gram + RIDGE_JITTER * np.eye(gram.shape[0])):
            try:
                beta = np.linalg.solve(system, moment)
            except np.linalg.LinAlgError:
                continue
            if np.isfinite(beta).all():
                return LinearModel(intercept=float(beta[0]), coefficients=tuple(float(b) for b in beta[1:]))
    raise LearnError("non-finite fit", "least squares has no finite solution, even with the ridge fallback")


def train_linear_regression(samples: Sequence[RegressionSample]) -> LinearModel:
    """:func:`fit` on a non-empty sample list whose features all share one arity."""
    check_samples(samples)
    return fit([s.features for s in samples], [s.target for s in samples])


def predict_linear(model: LinearModel, x: Sequence[float]) -> float:
    """One vector dot product: over many rows, a matrix product's sums can differ from it in the last bit."""
    if len(x) != model.arity:
        raise LearnError("feature arity", f"expected arity {model.arity}, got {len(x)}")
    return model.intercept + float(model.coefficient_array.dot(x))
