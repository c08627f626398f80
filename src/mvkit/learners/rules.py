"""Ordered rule-list classifier via sequential covering.

Classes are handled in ascending frequency so rare versions get rules
first and the common case falls through to the default label. Each rule
grows greedily: among midpoint thresholds over the still-uncovered
samples, append the (feature, direction, threshold) condition that
maximizes the rule's precision for the target class, until precision hits
1.0 or stops improving. A finished rule is kept only when it covers at
least ``min_cover`` samples at precision ``min_precision`` or better;
covered samples then leave the pool.

Each growth step takes its condition from the sort-and-sweep search in
:mod:`.splits`: every feature of the covered samples is sorted once and
swept with running hit and kept counts, so a step costs
O(arity * n log n) rather than one pass per (threshold, direction).
Precision is the integer quotient hits / kept, so the sweep picks exactly
the condition a separate pass per candidate would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .samples import LabeledSample, LearnError, check_samples
from .splits import best_condition, majority

LE = "le"  # feature <= threshold
GT = "gt"  # feature > threshold


@dataclass(frozen=True)
class Condition:
    """One comparison: feature <= threshold (le) or not (gt); any other op or a NaN threshold is "invalid rule".

    ``gt`` reads ``not x <= t``, as a dispatcher branch does, so a NaN
    feature fails every ``le`` and meets every ``gt``.
    """

    feature: int
    op: str
    threshold: float

    def __post_init__(self) -> None:
        if self.op not in (LE, GT):
            raise LearnError("invalid rule", f"condition op must be {LE!r} or {GT!r}, got {self.op!r}")
        if math.isnan(self.threshold):
            raise LearnError("invalid rule", "condition threshold is NaN")

    def holds(self, x: Sequence[float]) -> bool:
        return (x[self.feature] <= self.threshold) == (self.op == LE)


@dataclass(frozen=True)
class Rule:
    """Conjunction of conditions concluding a version label."""

    conditions: tuple[Condition, ...]
    label: int


@dataclass(frozen=True)
class RuleConfig:
    min_cover: int = 2
    min_precision: float = 0.7
    seed: int | None = None  # reserved; growth itself is deterministic

    def __post_init__(self) -> None:
        if self.min_cover < 1:
            raise LearnError("invalid config", f"min_cover must be >= 1, got {self.min_cover}")
        if not 0.0 < self.min_precision <= 1.0:
            raise LearnError(
                "invalid config", f"min_precision must be in (0, 1], got {self.min_precision}"
            )


@dataclass(frozen=True)
class RuleListModel:
    """First-match ordered rules with a default label; a condition feature outside ``[0, arity)`` is "invalid rule"."""

    rules: tuple[Rule, ...]
    default_label: int
    arity: int
    config: RuleConfig

    def __post_init__(self) -> None:
        bad = [c.feature for rule in self.rules for c in rule.conditions if not 0 <= c.feature < self.arity]
        if bad:
            raise LearnError("invalid rule", f"condition feature {bad[0]} outside arity {self.arity}")


def _grow_rule(pool: list[LabeledSample], target: int) -> tuple[Rule, list[int]]:
    """Greedily conjoin precision-maximizing conditions for one class.

    Returns the rule and the pool indices it covers. Ties go to higher
    coverage, then lower feature index, lower threshold, and "<=" before
    ">". A rule that never improves on the empty conjunction comes back
    with zero conditions; the caller rejects it.
    """
    conditions: list[Condition] = []
    covered = list(range(len(pool)))
    current = sum(1 for s in pool if s.label == target) / len(pool)
    while current < 1.0:
        best = best_condition([pool[i] for i in covered], target)
        if best is None or -best[0] <= current:
            break
        _, _, feature, threshold, op_rank = best
        cond = Condition(feature, (LE, GT)[op_rank], threshold)
        conditions.append(cond)
        covered = [i for i in covered if cond.holds(pool[i].features)]
        current = -best[0]
    return Rule(tuple(conditions), target), covered


def train_rule_list(
    samples: Sequence[LabeledSample], config: RuleConfig = RuleConfig()
) -> RuleListModel:
    """Sequential covering over version labels; see module docstring."""
    arity = check_samples(samples)

    counts: dict[int, int] = {}
    for s in samples:
        counts[s.label] = counts.get(s.label, 0) + 1
    classes = sorted(counts, key=lambda lab: (counts[lab], lab))

    pool = list(samples)
    rules: list[Rule] = []
    for target in classes:
        while any(s.label == target for s in pool):
            rule, covered = _grow_rule(pool, target)
            kept = len(covered)
            hits = sum(1 for i in covered if pool[i].label == target)
            ok = (
                rule.conditions
                and kept >= config.min_cover
                and hits / kept >= config.min_precision
            )
            if not ok:
                break
            rules.append(rule)
            covered_set = set(covered)
            pool = [s for i, s in enumerate(pool) if i not in covered_set]

    default = majority([s.label for s in pool]) if pool else majority([s.label for s in samples])
    return RuleListModel(tuple(rules), default, arity, config)


def predict_rules(model: RuleListModel, x: Sequence[float]) -> tuple[int, int]:
    """First matching rule wins, else the default label.

    Returns (label, conditions evaluated); evaluation of a rule stops at
    its first failing condition. The compiled dispatcher picks the same
    label with its own count: the cheapest tree over the rule list's
    threshold grid makes the fewest comparisons summed over the grid's
    cells, not the fewest at every input.
    """
    if len(x) != model.arity:
        raise LearnError("feature arity", f"expected arity {model.arity}, got {len(x)}")
    evaluated = 0
    for rule in model.rules:
        matched = True
        for cond in rule.conditions:
            evaluated += 1
            if not cond.holds(x):
                matched = False
                break
        if matched:
            return rule.label, evaluated
    return model.default_label, evaluated
