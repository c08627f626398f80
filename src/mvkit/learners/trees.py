"""Decision-tree classifier and CART-style regression tree.

Both trees share one induction skeleton: greedy top-down growth, split
candidates at midpoints of consecutive distinct sorted feature values
among the node's samples, "<=" routing left (inclusive), deterministic
tie-breaks (lower feature index, then lower threshold). The classifier
maximizes information gain with entropy in bits and optionally applies
reduced-error pruning against a stratified seeded holdout; the regressor
maximizes the reduction in the sum of squared deviations and predicts the
leaf mean.

Each node's best split comes from the sort-and-sweep search in
:mod:`.splits`: every feature is sorted once per node and swept with
per-class counts (classifier) or running sums and squared sums
(regressor), so a node costs O(arity * n log n) rather than one pass over
its samples per candidate. Classifier gains are bitwise equal to scoring
each candidate separately. The regressor's running sums only shortlist
the candidates whose cost lies within a proven rounding bound (about
8 * gamma(n+2) * n * max|t|^2) of the best; the shortlist is rescored with
the two-pass squared error, so the chosen split is the same one.

Trees are stored as the node array of :mod:`mvkit.nodes`, the same one a
dispatcher holds; ``TreeBranch``/``TreeLeaf`` are its ``Branch``/``Leaf``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Sequence

from ..nodes import Branch, Leaf, Node, depth_of, preorder, route
from ..rng import Rng, mix_seed
from .samples import LabeledSample, LearnError, RegressionSample
from .splits import best_class_split, best_regression_split, majority

CLASSIFIER = "classifier"
REGRESSOR = "regressor"


@dataclass(frozen=True)
class TreeConfig:
    """Induction hyperparameters; defaults differ per tree kind.

    ``prune`` selects reduced-error pruning for the classifier: a
    stratified ``prune_holdout`` fraction (seeded shuffle per class) is
    withheld from growth and subtrees are collapsed bottom-up whenever
    that does not increase holdout error. ``seed`` is required iff
    ``prune`` is set; the regressor ignores both.
    """

    min_split: int = 2
    max_depth: int = 64
    prune: bool = False
    prune_holdout: float = 0.2
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.min_split < 2:
            raise LearnError("invalid config", f"min_split must be >= 2, got {self.min_split}")
        if self.max_depth < 0:
            raise LearnError("invalid config", f"max_depth must be >= 0, got {self.max_depth}")
        if not 0.0 < self.prune_holdout < 1.0:
            raise LearnError(
                "invalid config", f"prune_holdout must be in (0, 1), got {self.prune_holdout}"
            )
        if self.prune and self.seed is None:
            raise LearnError("invalid config", "pruning requires a seed for the holdout split")


REGTREE_DEFAULTS = TreeConfig(min_split=4)


# Public names for the shared node types of :mod:`mvkit.nodes`.
TreeBranch, TreeLeaf = Branch, Leaf

# Trees built here are well formed; a failed walk means a hand-built model is broken.
_INVALID = partial(LearnError, "invalid tree")


@dataclass(frozen=True)
class TreeModel:
    """Flat binary tree of :mod:`mvkit.nodes` nodes; node 0 is the root.

    ``kind`` is "classifier" (integer leaf values) or "regressor" (mean
    target leaves). ``arity`` is the feature-vector length every
    prediction input must match. A classifier's node array is already a
    dispatcher's.
    """

    kind: str
    arity: int
    nodes: tuple[Node, ...]
    depth: int
    config: TreeConfig

    @property
    def leaf_count(self) -> int:
        return sum(1 for n in self.nodes if isinstance(n, Leaf))


# --- shared induction machinery ----------------------------------------------


def _check_samples(samples: Sequence[LabeledSample] | Sequence[RegressionSample]) -> int:
    if not samples:
        raise LearnError("no training data", "need at least one sample")
    arity = len(samples[0].features)
    for s in samples:
        if len(s.features) != arity:
            raise LearnError("feature arity", f"expected arity {arity}, got {len(s.features)}")
    return arity


@dataclass
class _Grown:
    """Mutable tree under construction; frozen into a TreeModel at the end."""

    nodes: list[Node] = field(default_factory=list)

    def add(self, node: Node) -> int:
        self.nodes.append(node)
        return len(self.nodes) - 1


def _grow(
    grown: _Grown,
    samples: list,
    depth: int,
    config: TreeConfig,
    best_split,
    make_leaf,
    is_pure,
) -> int:
    """Recursive induction shared by both tree kinds; returns node index."""
    if (
        is_pure(samples)
        or len(samples) < config.min_split
        or depth >= config.max_depth
    ):
        return grown.add(make_leaf(samples))

    best = best_split(samples)  # (score, feature, threshold)
    if best is None or best[0] <= 0.0:
        return grown.add(make_leaf(samples))

    _, feature, threshold = best
    left_samples = [s for s in samples if s.features[feature] <= threshold]
    right_samples = [s for s in samples if s.features[feature] > threshold]
    index = grown.add(Branch(feature, threshold, -1, -1))  # children patched below
    left = _grow(grown, left_samples, depth + 1, config, best_split, make_leaf, is_pure)
    right = _grow(grown, right_samples, depth + 1, config, best_split, make_leaf, is_pure)
    grown.nodes[index] = Branch(feature, threshold, left, right)
    return index


# --- classifier ---------------------------------------------------------------


def train_tree_classifier(
    samples: Sequence[LabeledSample], config: TreeConfig = TreeConfig()
) -> TreeModel:
    """Greedy entropy-gain decision tree over version labels.

    Growth stops on purity, on nodes smaller than ``min_split``, at
    ``max_depth``, or when no split has positive information gain; leaf
    labels are the majority (ties to the smaller id). With
    ``config.prune`` the tree is grown on a stratified 80% subset and
    reduced-error pruned against the remaining holdout.
    """
    _check_samples(samples)
    samples = list(samples)
    if config.prune:
        # Every class keeps at least one grow sample, so grow_set is never empty.
        grow_set, holdout = _stratified_holdout(samples, config.prune_holdout, config.seed)
        model = _train_unpruned(grow_set, config)
        return _reduced_error_prune(model, grow_set, holdout, config)
    return _train_unpruned(samples, config)


def _train_unpruned(samples: list[LabeledSample], config: TreeConfig) -> TreeModel:
    arity = _check_samples(samples)
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
    return TreeModel(CLASSIFIER, arity, nodes, depth_of(nodes, 0, _INVALID), config)


def _stratified_holdout(
    samples: list[LabeledSample], fraction: float, seed: int
) -> tuple[list[LabeledSample], list[LabeledSample]]:
    """Seeded per-class split; tiny classes stay whole in the grow set."""
    by_class: dict[int, list[int]] = {}
    for i, s in enumerate(samples):
        by_class.setdefault(s.label, []).append(i)
    holdout_idx: set[int] = set()
    for label in sorted(by_class):
        idx = list(by_class[label])
        rng = Rng(mix_seed(seed, label))
        rng.shuffle(idx)
        take = min(len(idx) - 1, math.floor(len(idx) * fraction + 0.5))
        holdout_idx.update(idx[: max(take, 0)])
    grow = [s for i, s in enumerate(samples) if i not in holdout_idx]
    hold = [s for i, s in enumerate(samples) if i in holdout_idx]
    return grow, hold


def _reduced_error_prune(
    model: TreeModel,
    grow_set: list[LabeledSample],
    holdout: list[LabeledSample],
    config: TreeConfig,
) -> TreeModel:
    """Bottom-up subtree collapse whenever holdout error does not increase."""
    nodes = list(model.nodes)

    grow_at: dict[int, list[LabeledSample]] = {0: list(grow_set)}
    hold_at: dict[int, list[LabeledSample]] = {0: list(holdout)}

    def distribute(index: int) -> None:
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

    def subtree_errors(index: int, samples: list[LabeledSample]) -> int:
        return sum(
            1 for s in samples if nodes[route(nodes, s.features, _INVALID, index)[0]].value != s.label
        )

    def prune(index: int) -> None:
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
    return TreeModel(CLASSIFIER, model.arity, compacted, depth_of(compacted, 0, _INVALID), config)


def predict_tree(model: TreeModel, x: Sequence[float]) -> tuple[float, int]:
    """Route a feature vector to its leaf; returns (value, comparisons)."""
    if len(x) != model.arity:
        raise LearnError("feature arity", f"expected arity {model.arity}, got {len(x)}")
    index, comparisons = route(model.nodes, x, _INVALID)
    value = model.nodes[index].value
    return (int(value) if model.kind == CLASSIFIER else float(value)), comparisons


# --- regression tree ----------------------------------------------------------


def train_regression_tree(
    samples: Sequence[RegressionSample], config: TreeConfig = REGTREE_DEFAULTS
) -> TreeModel:
    """CART-style regression tree: SSE-reduction splits, mean-target leaves.

    Growth stops on zero variance, nodes smaller than ``min_split``,
    ``max_depth``, or when no split reduces the squared error.
    """
    arity = _check_samples(samples)
    samples = list(samples)
    grown = _Grown()
    _grow(
        grown,
        samples,
        0,
        config,
        best_regression_split,
        lambda ss: Leaf(sum(s.target for s in ss) / len(ss)),
        lambda ss: len({s.target for s in ss}) == 1,
    )
    nodes = tuple(grown.nodes)
    return TreeModel(REGRESSOR, arity, nodes, depth_of(nodes, 0, _INVALID), config)
