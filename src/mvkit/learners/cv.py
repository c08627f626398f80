"""The learner entry points: train one model, predict with a regressor,
and deterministic k-fold cross validation for both learner families."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Sequence

from ..dispatch import compile_dispatcher, eval_dispatcher
from ..rng import Rng, mix_seed
from .linear import LinearModel, predict_linear, train_linear_regression
from .metrics import error_rate, rrse
from .rules import RuleConfig, train_rule_list
from .samples import LabeledSample, LearnError, RegressionSample
from .trees import REGRESSOR, REGTREE_DEFAULTS, TreeConfig, TreeModel, predict_tree, train_regression_tree, train_tree_classifier

FOLDS = 10  # the default fold count of cross_validate and `mvkit cv`

DC_ALGORITHMS = ("tree", "rules")
PPM_ALGORITHMS = ("regtree", "linreg")


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
        if self.algorithm not in DC_ALGORITHMS + PPM_ALGORITHMS:
            raise LearnError(
                "invalid config",
                f"algorithm must be one of {DC_ALGORITHMS + PPM_ALGORITHMS}, got {self.algorithm!r}",
            )

    @property
    def is_dc(self) -> bool:
        return self.algorithm in DC_ALGORITHMS

    def tree_config(self, seed: int | None) -> TreeConfig:
        base = TreeConfig() if self.algorithm == "tree" else REGTREE_DEFAULTS
        return replace(base, **self._set(TreeConfig, seed))

    def rule_config(self, seed: int | None) -> RuleConfig:
        return RuleConfig(**self._set(RuleConfig, seed))

    def _set(self, config_type: type, seed: int | None) -> dict[str, object]:
        """``seed`` plus the overrides this spec sets for ``config_type``'s fields."""
        given = {f.name: getattr(self, f.name, None) for f in fields(config_type)}
        return {k: v for k, v in given.items() if v is not None} | {"seed": seed}


def train_model(spec: LearnerSpec, samples: Sequence, seed: int | None = None):
    """Train one model of the requested family on the given samples."""
    if spec.algorithm == "tree":
        return train_tree_classifier(samples, spec.tree_config(seed))
    if spec.algorithm == "rules":
        return train_rule_list(samples, spec.rule_config(seed))
    if spec.algorithm == "regtree":
        return train_regression_tree(samples, spec.tree_config(seed))
    return train_linear_regression(samples)


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


def _stratified_folds(samples: Sequence[LabeledSample], k: int, rng: Rng) -> list[int]:
    """Per-class seeded shuffle, dealt round-robin with a cursor that runs
    on across classes, so fold sizes stay within 1 of each other globally
    and within 1 per class."""
    by_class: dict[int, list[int]] = {}
    for i, s in enumerate(samples):
        by_class.setdefault(s.label, []).append(i)
    fold_of = [0] * len(samples)
    cursor = 0
    for label in sorted(by_class):
        indices = list(by_class[label])
        rng.shuffle(indices)
        for i in indices:
            fold_of[i] = cursor % k
            cursor += 1
    return fold_of


def _plain_folds(n: int, k: int, rng: Rng) -> list[int]:
    order = list(range(n))
    rng.shuffle(order)
    fold_of = [0] * n
    for position, i in enumerate(order):
        fold_of[i] = position % k
    return fold_of


def cross_validate(
    spec: LearnerSpec,
    samples: Sequence[LabeledSample] | Sequence[RegressionSample],
    k: int = FOLDS,
    seed: int = 0,
) -> CVReport:
    """k-fold CV: classifiers get stratified folds and error rate,
    regressors plain shuffled folds and RRSE against each fold's training
    mean. Identical spec, samples, k, and seed give identical reports."""
    if k < 2:
        raise LearnError("invalid config", f"k must be >= 2, got {k}")
    if len(samples) < k:
        raise LearnError("not enough data", f"{len(samples)} samples cannot fill {k} folds")

    rng = Rng(mix_seed(seed, 0))
    if spec.is_dc:
        fold_of = _stratified_folds(samples, k, rng)
    else:
        fold_of = _plain_folds(len(samples), k, rng)

    per_fold: list[float] = []
    confusion: dict[tuple[int, int], int] = {}
    for fold in range(k):
        train = [s for i, s in enumerate(samples) if fold_of[i] != fold]
        test = [s for i, s in enumerate(samples) if fold_of[i] == fold]
        model = train_model(spec, train, seed=mix_seed(seed, fold + 1))
        if spec.is_dc:  # scored through the dispatcher `emit` would ship
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

    sizes = [0] * k
    for f in fold_of:
        sizes[f] += 1
    return CVReport(
        k=k,
        seed=seed,
        metric_name="error_rate" if spec.is_dc else "rrse_percent",
        per_fold=tuple(per_fold),
        aggregate=math.fsum(per_fold) / len(per_fold),
        fold_sizes=tuple(sizes),
        fold_of_sample=tuple(fold_of),
        confusion=tuple(sorted((a, p, n) for (a, p), n in confusion.items())),
    )
