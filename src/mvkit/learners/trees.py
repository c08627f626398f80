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

Growth is one loop over an explicit stack that appends nodes in
pre-order, so a tree may be as deep as it has samples without reaching
the interpreter's recursion limit. Every node also records its would-be
leaf and how many holdout samples reaching it that leaf gets wrong.
Reduced-error pruning (Quinlan, *Simplifying Decision Trees*, 1987) is a
bottom-up pass; children follow their parent in pre-order, so it is one
reverse sweep over the node array.

Trees are stored as the node array of :mod:`mvkit.nodes`, the same one a
dispatcher holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from operator import attrgetter
from typing import Sequence

from ..nodes import Branch, Leaf, Node, canonical, route
from ..rng import Rng, mix_seed
from .samples import LabeledSample, LearnError, RegressionSample, check_samples
from .splits import best_class_split, best_regression_split, majority

CLASSIFIER = "classifier"
REGRESSOR = "regressor"


@dataclass(frozen=True)
class TreeConfig:
    """Induction hyperparameters; defaults differ per tree kind.

    ``prune`` selects reduced-error pruning for the classifier: a
    stratified ``prune_holdout`` fraction (seeded shuffle per class) is
    withheld from growth. A reverse sweep over the grown pre-order array
    then collapses each branch to its majority leaf whenever that leaf's
    holdout errors are no more than those of the branch's two already
    swept children. ``seed`` is required iff ``prune`` is set; the
    regressor ignores both.
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

# Trees built here are well formed; a failed walk means a hand-built model is broken.
_INVALID = partial(LearnError, "invalid tree")


@dataclass(frozen=True)
class TreeModel:
    """Flat binary tree of :mod:`mvkit.nodes` nodes; node 0 is the root.

    ``kind`` is "classifier" (integer leaf values) or "regressor" (mean
    target leaves). ``arity`` is the feature-vector length every
    prediction input must match. Construction puts ``nodes`` in
    :func:`mvkit.nodes.canonical` order and sets ``depth``; a cycle or a
    bad child index is "invalid tree". A classifier's node array is
    already a dispatcher's.
    """

    kind: str
    arity: int
    nodes: tuple[Node, ...]
    config: TreeConfig
    depth: int = field(init=False)

    def __post_init__(self) -> None:
        nodes, depth = canonical(self.nodes, 0, _INVALID)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "depth", depth)

    @property
    def leaf_count(self) -> int:
        return sum(1 for n in self.nodes if isinstance(n, Leaf))


# --- shared induction machinery ----------------------------------------------


def _grow(
    samples: list,
    holdout: list[LabeledSample],
    config: TreeConfig,
    best_split,
    target,
    leaf_value,
) -> tuple[list[Node], list[Leaf], list[int]]:
    """Induction shared by both tree kinds: one explicit-stack loop in pre-order.

    ``target`` reads a sample's label or regression target; ``leaf_value``
    turns the targets of a node's grow samples into its would-be leaf.
    Returns the node array, each node's would-be leaf and how many of its
    ``holdout`` samples that leaf gets wrong. A branch's left child is the
    next node; its right index is patched in when the right child is popped.
    """
    nodes: list[Node] = []
    leaves: list[Leaf] = []
    errors: list[int] = []
    # (grow samples, holdout samples, depth, branch whose right child this is or -1)
    stack = [(samples, holdout, 0, -1)]
    while stack:
        here, held, depth, parent = stack.pop()
        index = len(nodes)
        if parent >= 0:
            up = nodes[parent]
            nodes[parent] = Branch(up.feature, up.threshold, up.left, index)
        values = list(map(target, here))
        leaf = Leaf(leaf_value(values))
        leaves.append(leaf)
        errors.append(sum(1 for s in held if target(s) != leaf.value))
        best = None  # (score, feature, threshold)
        if len(set(values)) > 1 and len(here) >= config.min_split and depth < config.max_depth:
            best = best_split(here)
        if best is None or best[0] <= 0.0:
            nodes.append(leaf)
            continue
        _, feature, threshold = best
        nodes.append(Branch(feature, threshold, index + 1, -1))
        # The right side goes on first, so the left one is popped next as node index + 1.
        stack.append((
            [s for s in here if s.features[feature] > threshold],
            [s for s in held if s.features[feature] > threshold],
            depth + 1,
            index,
        ))
        stack.append((
            [s for s in here if s.features[feature] <= threshold],
            [s for s in held if s.features[feature] <= threshold],
            depth + 1,
            -1,
        ))
    return nodes, leaves, errors


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
    arity = check_samples(samples)
    samples, holdout = list(samples), []
    if config.prune:
        # Every class keeps at least one grow sample, so the grow set is never empty.
        samples, holdout = _stratified_holdout(samples, config.prune_holdout, config.seed)
    nodes, leaves, errors = _grow(samples, holdout, config, best_class_split, attrgetter("label"), majority)
    if config.prune:
        # Children follow their parent in pre-order, so a reverse sweep is bottom-up.
        for i in reversed(range(len(nodes))):
            node = nodes[i]
            if isinstance(node, Branch):
                below = errors[node.left] + errors[node.right]
                if errors[i] <= below:
                    nodes[i] = leaves[i]
                else:
                    errors[i] = below
    return TreeModel(CLASSIFIER, arity, tuple(nodes), config)  # drops the subtrees pruning cut off


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
    arity = check_samples(samples)
    nodes, _, _ = _grow(
        list(samples), [], config, best_regression_split, attrgetter("target"), lambda ts: sum(ts) / len(ts)
    )
    return TreeModel(REGRESSOR, arity, tuple(nodes), config)
