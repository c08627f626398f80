"""``learners.cv`` against the fold dealers and config builders its learner table replaced, kept verbatim.

``cross_validate`` once dealt classifier folds with ``_stratified_folds`` and regressor folds with
``_plain_folds``, and built each trainer's config with ``tree_config``, ``rule_config`` and ``_set``
(methods of ``LearnerSpec`` then, functions of the spec here). Every fold assignment and every
config that reaches a trainer must stay what they gave.
"""

from __future__ import annotations

import math
from dataclasses import fields, replace
from typing import Sequence

import pytest

from mvkit import LearnError, LearnerSpec, cross_validate, train_model
from mvkit.learners import LabeledSample, RegressionSample, cv
from mvkit.learners.rules import RuleConfig
from mvkit.learners.trees import REGTREE_DEFAULTS, TreeConfig
from mvkit.rng import Rng, mix_seed

# --- oracles: the parent's code, verbatim but for methods becoming functions of the spec -----------


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


def tree_config(self, seed: int | None) -> TreeConfig:
    base = TreeConfig() if self.algorithm == "tree" else REGTREE_DEFAULTS
    return replace(base, **_set(self, TreeConfig, seed))


def rule_config(self, seed: int | None) -> RuleConfig:
    return RuleConfig(**_set(self, RuleConfig, seed))


def _set(self, config_type: type, seed: int | None) -> dict[str, object]:
    """``seed`` plus the overrides this spec sets for ``config_type``'s fields."""
    given = {f.name: getattr(self, f.name, None) for f in fields(config_type)}
    return {k: v for k, v in given.items() if v is not None} | {"seed": seed}


# --- folds -------------------------------------------------------------------------------------------

SIZES = [*range(1, 61), 300, 2000]
SEEDS = (0, 7, 123456789)


def labeled(n: int) -> list[LabeledSample]:
    """Uneven classes on one constant feature, so every tree is a leaf and training costs O(n)."""
    return [LabeledSample((0.0,), (i * i + 3 * i) % 5 + (i % 11 == 0)) for i in range(n)]


def regression(n: int) -> list[RegressionSample]:
    """Distinct targets on one constant feature: no fold's targets all equal its training mean."""
    return [RegressionSample((0.0,), math.sqrt(i)) for i in range(n)]


@pytest.mark.parametrize("family", ["classifier", "regressor"])
def test_folds_are_the_parents_deal(family):
    checked = 0
    for n in SIZES:
        for k in (2, 3, 5, 10):
            if n < k:
                continue
            for seed in SEEDS:
                if family == "classifier":
                    samples = labeled(n)
                    got = cross_validate(LearnerSpec("tree"), samples, k, seed).fold_of_sample
                    want = _stratified_folds(samples, k, Rng(mix_seed(seed, 0)))
                else:
                    got = cross_validate(LearnerSpec("regtree"), regression(n), k, seed).fold_of_sample
                    want = _plain_folds(n, k, Rng(mix_seed(seed, 0)))
                assert list(got) == want, f"n={n} k={k} seed={seed}"
                checked += 1
    assert checked >= 600


# --- configs -----------------------------------------------------------------------------------------

OVERRIDES = [{"prune": True}, {"min_cover": 1}, {"min_split": 12}, {}]
TRAINERS = {
    "tree": "train_tree_classifier",
    "rules": "train_rule_list",
    "regtree": "train_regression_tree",
    "linreg": "train_linear_regression",
}


def oracle_args(spec: LearnerSpec, samples: list, seed: int | None) -> tuple:
    if spec.algorithm in ("tree", "regtree"):
        return samples, tree_config(spec, seed)
    if spec.algorithm == "rules":
        return samples, rule_config(spec, seed)
    return (samples,)


@pytest.mark.parametrize("algorithm", list(TRAINERS))
@pytest.mark.parametrize("overrides", OVERRIDES, ids=["prune", "min_cover", "min_split", "none"])
@pytest.mark.parametrize("seed", [7, None], ids=["seed", "no-seed"])
def test_each_trainer_gets_the_parents_config(algorithm, overrides, seed, monkeypatch):
    calls = []
    monkeypatch.setattr(cv, TRAINERS[algorithm], lambda *args: calls.append(args) or "model")
    spec, samples = LearnerSpec(algorithm, **overrides), [object()]
    try:
        want = oracle_args(spec, samples, seed)
    except LearnError as refused:  # pruning without a seed
        with pytest.raises(LearnError) as got:
            train_model(spec, samples, seed)
        assert (got.value.category, got.value.message, calls) == (refused.category, refused.message, [])
        return
    assert train_model(spec, samples, seed) == "model"
    assert calls == [want]
