"""The learner entry points: train one model, predict with a regressor,
and deterministic k-fold cross validation for both learner families.
Folds are dealt per label, and regressors count as one label. Linear regression
fits ``linear.fit`` on rows of one feature matrix and predicts row by row, as ``predict_linear`` does."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Sequence

from ..rng import Rng, mix_seed
from .linear import LinearModel, fit, predict_linear, train_linear_regression
from .metrics import error_rate, rrse
from .rules import RuleConfig, train_rule_list
from .samples import LabeledSample, LearnError, RegressionSample
from .trees import REGRESSOR, REGTREE_DEFAULTS, TreeConfig, TreeModel, predict_tree, train_regression_tree, train_tree_classifier

FOLDS = 10  # the default fold count of cross_validate and `mvkit cv`

# algorithm -> (trainer, default config). A trainer looks its function up when called,
# so a wrapper swapped into this module (as bench/tracing.py does) is the one that runs.
_LEARNERS = {
    "tree": (lambda samples, config: train_tree_classifier(samples, config), TreeConfig()),
    "rules": (lambda samples, config: train_rule_list(samples, config), RuleConfig()),
    "regtree": (lambda samples, config: train_regression_tree(samples, config), REGTREE_DEFAULTS),
    "linreg": (lambda samples, config: train_linear_regression(samples), None),
}
DC_ALGORITHMS = ("tree", "rules")


@dataclass(frozen=True)
class LearnerSpec:
    """Algorithm name plus hyperparameter overrides (None = family default)."""

    algorithm: str
    min_split: int | None = None
    max_depth: int | None = None
    prune: bool = False
    prune_holdout: float | None = None
    min_cover: int | None = None
    min_precision: float | None = None

    def __post_init__(self) -> None:
        if self.algorithm not in _LEARNERS:
            raise LearnError("invalid config", f"algorithm must be one of {tuple(_LEARNERS)}, got {self.algorithm!r}")

    @property
    def is_dc(self) -> bool:
        return self.algorithm in DC_ALGORITHMS

    def config(self, seed: int | None) -> TreeConfig | RuleConfig | None:
        """The algorithm's default config with ``seed`` and this spec's overrides of its fields; None for linreg."""
        default = _LEARNERS[self.algorithm][1]
        if default is None:
            return None
        given = {f.name: getattr(self, f.name, None) for f in fields(default)}
        return replace(default, **{k: v for k, v in given.items() if v is not None} | {"seed": seed})


def train_model(spec: LearnerSpec, samples: Sequence, seed: int | None = None):
    """Train one model of the requested family on the given samples."""
    return _LEARNERS[spec.algorithm][0](samples, spec.config(seed))


Regressor = TreeModel | LinearModel


def predict_regression(model: Regressor, x: Sequence[float]) -> float:
    """Predicted ln speedup at x, regardless of regressor family."""
    if isinstance(model, TreeModel):
        if model.kind != REGRESSOR:
            raise LearnError("model kind", "classifier tree cannot serve as a regressor")
        return predict_tree(model, x)[0]
    return predict_linear(model, x)


@dataclass(frozen=True)
class CVReport:
    """Per-fold and aggregate quality of one learner under k-fold CV.

    ``metric_name`` is "error_rate" for classifiers and "rrse_percent"
    for regressors; ``aggregate`` is the mean of ``per_fold``.
    ``fold_of_sample[i]`` is the test fold of input sample i, and
    ``confusion`` holds (actual, predicted, count) triples for
    classifiers, summed over folds and sorted.
    """

    k: int
    seed: int
    metric_name: str
    per_fold: tuple[float, ...]
    aggregate: float
    fold_sizes: tuple[int, ...]
    fold_of_sample: tuple[int, ...]
    confusion: tuple[tuple[int, int, int], ...]


def _folds(labels: Sequence[int], k: int, rng: Rng) -> list[int]:
    """Per-label seeded shuffle, dealt round-robin with a cursor that runs
    on across labels, so fold sizes stay within 1 of each other globally
    and within 1 per label."""
    by_label: dict[int, list[int]] = {}
    for i, label in enumerate(labels):
        by_label.setdefault(label, []).append(i)
    fold_of = [0] * len(labels)
    cursor = 0
    for label in sorted(by_label):
        indices = by_label[label]
        rng.shuffle(indices)
        for i in indices:
            fold_of[i] = cursor % k
            cursor += 1
    return fold_of


def cross_validate(
    spec: LearnerSpec,
    samples: Sequence[LabeledSample] | Sequence[RegressionSample],
    k: int = FOLDS,
    seed: int = 0,
) -> CVReport:
    """k-fold CV: classifiers get folds stratified by label and error rate,
    regressors count as one class, so a plain shuffled deal, and RRSE
    against each fold's training mean. Identical spec, samples, k, and
    seed give identical reports."""
    if k < 2:
        raise LearnError("invalid config", f"k must be >= 2, got {k}")
    if len(samples) < k:
        raise LearnError("not enough data", f"{len(samples)} samples cannot fill {k} folds")

    labels = [s.label for s in samples] if spec.is_dc else [0] * len(samples)
    fold_of = _folds(labels, k, Rng(mix_seed(seed, 0)))
    per_fold: list[float] = []
    confusion: dict[tuple[int, int], int] = {}
    if spec.algorithm == "linreg":
        import numpy as np
        train0 = [s for s, f in zip(samples, fold_of) if f]
        for s in samples:  # mixed arities: fold 0 raises what fitting it, then predicting its first odd sample, raises
            if len(s.features) != len(train0[0].features):
                predict_linear(train_linear_regression(train0), s.features)
        features = np.array([s.features for s in samples], dtype=float)
        targets = np.array([s.target for s in samples], dtype=float)
        folds = np.array(fold_of)
    for fold in range(k):
        if spec.algorithm == "linreg":
            train, test = np.flatnonzero(folds != fold), np.flatnonzero(folds == fold)
            model = fit(features[train], targets[train])
            predictions = [model.intercept + float(model.coefficient_array.dot(row)) for row in features[test]]
            per_fold.append(rrse(predictions, targets[test].tolist(), math.fsum(targets[train].tolist()) / len(train)))
            continue
        train = [s for i, s in enumerate(samples) if fold_of[i] != fold]
        test = [s for i, s in enumerate(samples) if fold_of[i] == fold]
        model = train_model(spec, train, seed=mix_seed(seed, fold + 1))
        if spec.is_dc:  # scored through the dispatcher `emit` would ship
            from ..dispatch import compile_dispatcher, eval_dispatcher
            dispatcher = compile_dispatcher(model)
            predictions = [eval_dispatcher(dispatcher, s.features)[0] for s in test]
            actual = [s.label for s in test]
            per_fold.append(error_rate(predictions, actual))
            for a, p in zip(actual, predictions):
                confusion[(a, p)] = confusion.get((a, p), 0) + 1
        else:
            predictions = [predict_regression(model, s.features) for s in test]
            actual = [s.target for s in test]
            train_mean = math.fsum(s.target for s in train) / len(train)
            per_fold.append(rrse(predictions, actual, train_mean))

    return CVReport(
        k=k,
        seed=seed,
        metric_name="error_rate" if spec.is_dc else "rrse_percent",
        per_fold=tuple(per_fold),
        aggregate=math.fsum(per_fold) / len(per_fold),
        fold_sizes=tuple(fold_of.count(f) for f in range(k)),
        fold_of_sample=tuple(fold_of),
        confusion=tuple(sorted((a, p, n) for (a, p), n in confusion.items())),
    )
