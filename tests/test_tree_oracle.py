"""Stack growth and reverse-sweep pruning against the recursive code they replaced.

The oracle below is the earlier induction: a recursive `_grow` into a
`_Grown` list, and `_reduced_error_prune`, which redistributes the grow
and holdout sets, recurses bottom-up and routes every holdout sample
again from each branch. Whole models trained either way must serialize
to the same MVMODEL bytes.
"""

import random
import sys
from dataclasses import dataclass, field

import pytest

from mvkit import modelio
from mvkit.learners import LabeledSample, RegressionSample, TreeConfig
from mvkit.learners.trees import (
    _INVALID,
    CLASSIFIER,
    REGRESSOR,
    REGTREE_DEFAULTS,
    TreeModel,
    _stratified_holdout,
    train_regression_tree,
    train_tree_classifier,
)
from mvkit.learners.splits import best_class_split, best_regression_split, majority
from mvkit.nodes import Branch, Leaf, route

from test_nodes import preorder

# --- oracle: recursive growth and closure-based pruning ------------------------


@dataclass
class _Grown:
    nodes: list = field(default_factory=list)

    def add(self, node) -> int:
        self.nodes.append(node)
        return len(self.nodes) - 1


def _grow(grown, samples, depth, config, best_split, make_leaf, is_pure):
    if is_pure(samples) or len(samples) < config.min_split or depth >= config.max_depth:
        return grown.add(make_leaf(samples))
    best = best_split(samples)
    if best is None or best[0] <= 0.0:
        return grown.add(make_leaf(samples))
    _, feature, threshold = best
    left_samples = [s for s in samples if s.features[feature] <= threshold]
    right_samples = [s for s in samples if s.features[feature] > threshold]
    index = grown.add(Branch(feature, threshold, -1, -1))
    left = _grow(grown, left_samples, depth + 1, config, best_split, make_leaf, is_pure)
    right = _grow(grown, right_samples, depth + 1, config, best_split, make_leaf, is_pure)
    grown.nodes[index] = Branch(feature, threshold, left, right)
    return index


def _train_unpruned(samples, config):
    grown = _Grown()
    _grow(
        grown,
        samples,
        0,
        config,
        best_class_split,
        lambda ss: Leaf(majority([s.label for s in ss])),
        lambda ss: len({s.label for s in ss}) == 1,
    )
    nodes = tuple(grown.nodes)
    return TreeModel(CLASSIFIER, len(samples[0].features), nodes, config)


def _reduced_error_prune(model, grow_set, holdout, config):
    nodes = list(model.nodes)
    grow_at = {0: list(grow_set)}
    hold_at = {0: list(holdout)}

    def distribute(index):
        node = nodes[index]
        if isinstance(node, Leaf):
            return
        for store in (grow_at, hold_at):
            here = store.get(index, [])
            store[node.left] = [s for s in here if s.features[node.feature] <= node.threshold]
            store[node.right] = [s for s in here if s.features[node.feature] > node.threshold]
        distribute(node.left)
        distribute(node.right)

    distribute(0)

    def subtree_errors(index, samples):
        return sum(
            1 for s in samples if nodes[route(nodes, s.features, _INVALID, index)[0]].value != s.label
        )

    def prune(index):
        node = nodes[index]
        if isinstance(node, Leaf):
            return
        prune(node.left)
        prune(node.right)
        here_hold = hold_at.get(index, [])
        here_grow = grow_at.get(index, [])
        leaf_label = majority([s.label for s in here_grow]) if here_grow else None
        if leaf_label is None:
            return
        as_leaf_errors = sum(1 for s in here_hold if s.label != leaf_label)
        if as_leaf_errors <= subtree_errors(index, here_hold):
            nodes[index] = Leaf(leaf_label)

    prune(0)
    compacted = preorder(nodes, 0, _INVALID)
    return TreeModel(CLASSIFIER, model.arity, compacted, config)


def oracle_classifier(samples, config):
    samples = list(samples)
    if config.prune:
        grow_set, holdout = _stratified_holdout(samples, config.prune_holdout, config.seed)
        return _reduced_error_prune(_train_unpruned(grow_set, config), grow_set, holdout, config)
    return _train_unpruned(samples, config)


def oracle_regressor(samples, config):
    grown = _Grown()
    _grow(
        grown,
        list(samples),
        0,
        config,
        best_regression_split,
        lambda ss: Leaf(sum(s.target for s in ss) / len(ss)),
        lambda ss: len({s.target for s in ss}) == 1,
    )
    nodes = tuple(grown.nodes)
    return TreeModel(REGRESSOR, len(samples[0].features), nodes, config)


# --- seeded sample sets -------------------------------------------------------

SETS = 200


def _features(rng, arity):
    # Half the sets draw from a small integer grid (many ties and duplicates).
    if rng.random() < 0.5:
        return lambda: tuple(float(rng.randrange(6)) for _ in range(arity))
    return lambda: tuple(rng.gauss(0.0, 10.0) for _ in range(arity))


def labeled_set(seed):
    rng = random.Random(seed)
    arity, n, classes = rng.randint(1, 3), rng.randint(1, 80), rng.randint(1, 4)
    draw = _features(rng, arity)
    return [LabeledSample(draw(), rng.randint(1, classes)) for _ in range(n)]


def regression_set(seed):
    rng = random.Random(10_000 + seed)
    arity, n = rng.randint(1, 3), rng.randint(1, 80)
    draw = _features(rng, arity)
    targets = (lambda: float(rng.randrange(3))) if rng.random() < 0.3 else (lambda: rng.gauss(0.0, 1.0))
    return [RegressionSample(draw(), targets()) for _ in range(n)]


CLASSIFIER_CONFIGS = [
    TreeConfig(),
    TreeConfig(max_depth=0),
    TreeConfig(max_depth=2),
    TreeConfig(min_split=6),
    TreeConfig(min_split=3, max_depth=4),
]
PRUNED_CONFIGS = [
    TreeConfig(prune=True, prune_holdout=holdout, seed=seed, max_depth=depth)
    for holdout, seed, depth in [(0.2, 1, 64), (0.1, 7, 64), (0.35, 3, 3), (0.5, 11, 64), (0.9, 5, 64)]
]
REGRESSOR_CONFIGS = [REGTREE_DEFAULTS, TreeConfig(min_split=2, max_depth=3), TreeConfig(min_split=2)]


def _assert_same(model, expected, what):
    dump = modelio.dumps if model.kind == CLASSIFIER else (lambda m: modelio.dumps({1: m}))
    assert dump(model) == dump(expected), what
    assert model.depth == expected.depth, what


@pytest.mark.parametrize("config", CLASSIFIER_CONFIGS + PRUNED_CONFIGS, ids=repr)
def test_classifier_matches_recursive_oracle(config):
    for seed in range(SETS):
        samples = labeled_set(seed)
        _assert_same(train_tree_classifier(samples, config), oracle_classifier(samples, config), seed)


@pytest.mark.parametrize("config", REGRESSOR_CONFIGS, ids=repr)
def test_regressor_matches_recursive_oracle(config):
    for seed in range(SETS):
        samples = regression_set(seed)
        _assert_same(train_regression_tree(samples, config), oracle_regressor(samples, config), seed)


def test_pruning_collapses_some_sets():
    """The pruned comparisons above exercise both outcomes of the sweep."""
    config = PRUNED_CONFIGS[0]
    collapsed = kept = 0
    for seed in range(SETS):
        grow_set, _ = _stratified_holdout(labeled_set(seed), config.prune_holdout, config.seed)
        unpruned = _train_unpruned(grow_set, config)
        pruned = train_tree_classifier(labeled_set(seed), config)
        collapsed += len(pruned.nodes) < len(unpruned.nodes)
        kept += len(pruned.nodes) == len(unpruned.nodes) > 1
    assert collapsed > 0 and kept > 0


# --- depth: counts, never times -----------------------------------------------


def _stack_depth():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def test_pruned_chain_trains_within_a_tight_recursion_limit():
    # Alternating labels make every split peel off one value: a chain far
    # deeper than the 100 frames of headroom below.
    samples = [LabeledSample((float(i),), i % 2) for i in range(400) for _ in range(3)]
    config = TreeConfig(max_depth=5000, prune=True, seed=1)
    expected = oracle_classifier(samples, config)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 100)
    try:
        model = train_tree_classifier(samples, config)
    finally:
        sys.setrecursionlimit(limit)
    assert (model.depth, len(model.nodes)) == (332, 775)
    assert modelio.dumps(model) == modelio.dumps(expected)
