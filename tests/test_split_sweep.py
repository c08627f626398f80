"""Sort-and-sweep split search against the per-candidate scorers it replaced.

The oracle below scores every (feature, threshold[, direction]) candidate
with its own pass over the samples, exactly as the learners did before the
sweep: `_information_gain`, `_sse_reduction` and the per-threshold rule
filter. The sweep must choose the same (score, feature, threshold) bit for
bit, and whole models trained with either search must be equal.
"""

import math
import random

import pytest

from mvkit.learners import LabeledSample, RegressionSample, TreeConfig
from mvkit.learners import rules, splits, trees
from mvkit.learners.rules import GT, LE, Condition, RuleConfig
from mvkit.learners.splits import (
    _cuts,
    best_class_split,
    best_condition,
    best_regression_split,
    majority,
    midpoints,
)

# --- oracle: one pass over the samples per candidate ---------------------------


def _midpoints(values):
    distinct = sorted(set(values))
    return [(a + b) / 2.0 for a, b in zip(distinct, distinct[1:])]


def _entropy_bits(labels):
    n = len(labels)
    counts = {}
    for lab in labels:
        counts[lab] = counts.get(lab, 0) + 1
    h = 0.0
    for c in counts.values():
        p = c / n
        h -= p * math.log2(p)
    return h


def _information_gain(samples, feature, threshold):
    left = [s.label for s in samples if s.features[feature] <= threshold]
    right = [s.label for s in samples if s.features[feature] > threshold]
    if not left or not right:
        return 0.0
    n = len(samples)
    parent = _entropy_bits([s.label for s in samples])
    return parent - (len(left) / n) * _entropy_bits(left) - (len(right) / n) * _entropy_bits(right)


def _sse(targets):
    n = len(targets)
    mean = sum(targets) / n
    return sum((t - mean) ** 2 for t in targets)


def _sse_reduction(samples, feature, threshold):
    left = [s.target for s in samples if s.features[feature] <= threshold]
    right = [s.target for s in samples if s.features[feature] > threshold]
    if not left or not right:
        return 0.0
    return _sse([s.target for s in samples]) - _sse(left) - _sse(right)


def oracle_split(samples, score_split):
    best = None
    for j in range(len(samples[0].features)):
        for thr in _midpoints([s.features[j] for s in samples]):
            score = score_split(samples, j, thr)
            if best is None or score > best[0] or (score == best[0] and (j, thr) < (best[1], best[2])):
                best = (score, j, thr)
    return best


def oracle_condition(samples, target):
    best = None
    for feature in range(len(samples[0].features)):
        for threshold in _midpoints([s.features[feature] for s in samples]):
            for op_rank, op in enumerate((LE, GT)):
                cond = Condition(feature, op, threshold)
                kept = [s for s in samples if cond.holds(s.features)]
                if not kept:
                    continue
                precision = sum(1 for s in kept if s.label == target) / len(kept)
                key = (-precision, -len(kept), feature, threshold, op_rank)
                if best is None or key < best:
                    best = key
    return best


# --- random instances ---------------------------------------------------------


def _ladder(start, steps):
    out = [start]
    for _ in range(steps):
        out.append(math.nextafter(out[-1], math.inf))
    return out


# Each kind draws one feature's values. "adjacent" and "subnormal" are runs of
# consecutive floats, whose midpoints round onto one of their two ends;
# "huge" midpoints overflow to +-inf.
FEATURE_KINDS = {
    "ints": lambda rng: float(rng.randint(0, 6)),
    "adjacent": lambda rng: rng.choice(_ladder(1.0, 5)),
    "subnormal": lambda rng: rng.choice(_ladder(0.0, 4)),
    "huge": lambda rng: rng.choice((-1.7e308, -1e308, 0.0, 1e308, 1.5e308, 1.7e308)),
    "continuous": lambda rng: rng.uniform(-50.0, 50.0),
}

NEAR_TIES = (0.0, 0.1, 0.2, 0.3, 1.0 / 3.0)


def _target(rng, kind):
    if kind == "uniform":
        return rng.uniform(-3.0, 3.0)
    t = rng.choice(NEAR_TIES)
    # nudge some targets by one ulp, so distinct splits tie to within rounding
    return math.nextafter(t, rng.choice((-math.inf, math.inf))) if rng.random() < 0.3 else t


def make_instance(seed):
    """Labeled and regression samples over the same random feature vectors."""
    rng = random.Random(seed)
    n = rng.randint(1, 40)
    arity = rng.randint(1, 3)
    kinds = [rng.choice(sorted(FEATURE_KINDS)) for _ in range(arity)]
    rows = [tuple(FEATURE_KINDS[k](rng) for k in kinds) for _ in range(n)]
    # mirrored features with palindromic targets: splits on different
    # features tie in real arithmetic but are summed in different orders
    mirrored = rng.random() < 0.25
    if mirrored:
        rows = [(float(i), float(n - i)) for i in range(n)]
    classes = rng.randint(1, 4)
    labeled = [LabeledSample(x, rng.randint(1, classes)) for x in rows]
    target_kind = rng.choice(("uniform", "near-tie"))
    targets = [_target(rng, target_kind) for _ in rows]
    if mirrored:
        targets = [targets[min(i, n - 1 - i)] for i in range(n)]
    regression = [RegressionSample(x, t) for x, t in zip(rows, targets)]
    return labeled, regression


SEEDS = range(320)


def _bits(value):
    """Exact image of a result: floats by their hex form, so even 0.0 != -0.0."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    return value


# --- chosen split -------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_sweeps_choose_the_oracle_split(seed):
    labeled, regression = make_instance(seed)
    assert _bits(best_class_split(labeled)) == _bits(oracle_split(labeled, _information_gain))
    assert _bits(best_regression_split(regression)) == _bits(oracle_split(regression, _sse_reduction))
    for target in sorted({s.label for s in labeled}):
        assert _bits(best_condition(labeled, target)) == _bits(oracle_condition(labeled, target))


def test_midpoint_rounding_onto_the_upper_value_goes_left():
    lo, hi = _ladder(1.0, 2)[1:]  # the midpoint of this pair rounds up to hi
    assert midpoints([lo, hi]) == [hi]
    samples = [LabeledSample((lo,), 1), LabeledSample((hi,), 2), LabeledSample((2.0,), 2)]
    assert best_class_split(samples) == oracle_split(samples, _information_gain)
    assert best_condition(samples, 1) == oracle_condition(samples, 1)


def test_overflowing_midpoint_puts_everything_left():
    samples = [LabeledSample((1e308,), 1), LabeledSample((1.5e308,), 2)]
    assert midpoints([1e308, 1.5e308]) == [math.inf]
    assert best_class_split(samples) == (0.0, 0, math.inf)
    assert best_condition(samples, 1) == (-0.5, -2, 0, math.inf, 0)


def test_overflowing_target_sums_rescore_every_candidate():
    # running sums of squares near the top of the float range overflow, so
    # the rounding bound cannot rule any candidate out
    targets = (3e153, 5e153, 3e153, 3e153, 3e153)
    samples = [RegressionSample((float(i), float(i >= 2)), t) for i, t in enumerate(targets)]
    best = best_regression_split(samples)
    assert _bits(best) == _bits(oracle_split(samples, _sse_reduction))
    assert best[1:] == (0, 1.5)


def test_a_nan_feature_can_leave_a_rescored_side_empty():
    # A NaN upsets the sort, so the sweep counts 2 of 5 samples at or below the overflowed -inf midpoint of
    # the two huge negatives, where "<=" finds none: the rescore must score that side 0.0, not divide by
    # its size. The candidates follow set order, so each NaN's id; most NaNs make the -inf candidate.
    nans = [float("nan") for _ in range(64)]
    emptied = 0
    for nan in nans:
        samples = [RegressionSample((f,), 0.25 * i) for i, f in enumerate((0.0, nan, -1.7e308, 1.0, -1.6e308))]
        assert math.isfinite(best_regression_split(samples)[0])
        emptied += (-math.inf, 2) in _cuts([s.features[0] for s in samples])[1]
    assert emptied


def test_cuts_sorts_a_feature_once(monkeypatch):
    calls = []

    def counting_sorted(*args, **kwargs):
        calls.append(args)
        return sorted(*args, **kwargs)

    monkeypatch.setattr(splits, "sorted", counting_sorted, raising=False)
    assert _cuts([2.0, 0.0, 2.0, -1.0]) == ([3, 1, 0, 2], [(-0.5, 1), (1.0, 2)])
    assert len(calls) == 1


def test_a_nan_feature_gives_the_same_candidates_and_tree_whatever_the_nan_object():
    # All 256 NaNs stay alive, so each has its own id; the candidates come from the sort, not from set order.
    nans = [float("nan") for _ in range(256)]
    candidates, models = set(), set()
    for nan in nans:
        features = (0.0, nan, -1.7e308, 1.0, -1.6e308)
        order, cuts = _cuts(features)
        candidates.add((tuple(order), tuple((thr.hex(), nl) for thr, nl in cuts)))
        samples = [RegressionSample((f,), 0.25 * i) for i, f in enumerate(features)]
        models.add(repr(trees.train_regression_tree(samples, TreeConfig(min_split=2)).nodes))
    assert len(candidates) == 1
    assert len(models) == 1


def test_majority_breaks_ties_to_the_smaller_label():
    assert majority([3, 1, 3, 1, 2]) == 1
    assert majority([5]) == 5


# --- whole models -------------------------------------------------------------


def _train_all(labeled, regression):
    grow_cfg = TreeConfig(min_split=2)
    prune_cfg = TreeConfig(prune=True, seed=11)
    return (
        trees.train_tree_classifier(labeled, grow_cfg),
        trees.train_tree_classifier(labeled, prune_cfg) if len(labeled) >= 2 else None,
        trees.train_regression_tree(regression),
        rules.train_rule_list(labeled, RuleConfig(min_cover=1, min_precision=0.5)),
        rules.train_rule_list(labeled),
    )


@pytest.mark.parametrize("seed", range(0, 320, 4))
def test_models_equal_oracle_models(seed, monkeypatch):
    labeled, regression = make_instance(seed)
    swept = _train_all(labeled, regression)
    monkeypatch.setattr(trees, "best_class_split", lambda ss: oracle_split(ss, _information_gain))
    monkeypatch.setattr(trees, "best_regression_split", lambda ss: oracle_split(ss, _sse_reduction))
    monkeypatch.setattr(rules, "best_condition", oracle_condition)
    scanned = _train_all(labeled, regression)
    assert swept == scanned
    assert repr(swept) == repr(scanned)
