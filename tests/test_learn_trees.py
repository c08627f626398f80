"""Decision-tree induction: splits, stopping, pruning, regression variant."""

import pytest

from mvkit import (
    LearnError,
    TreeConfig,
    predict_tree,
    train_regression_tree,
    train_tree_classifier,
)
from mvkit.learners import LabeledSample, RegressionSample
from mvkit.nodes import Branch, Leaf
from mvkit.rng import Rng

FOUR = [
    LabeledSample((2.0,), 1),
    LabeledSample((4.0,), 1),
    LabeledSample((8.0,), 2),
    LabeledSample((10.0,), 2),
]


class TestClassifier:
    def test_separable_pair_splits_at_midpoint(self):
        model = train_tree_classifier(FOUR)
        root = model.nodes[0]
        assert isinstance(root, Branch)
        assert root.feature == 0
        assert root.threshold == 6.0
        assert model.leaf_count == 2
        assert model.depth == 1

    def test_boundary_point_goes_left(self):
        model = train_tree_classifier(FOUR)
        assert predict_tree(model, (6.0,)) == (1, 1)
        assert predict_tree(model, (6.0000001,)) == (2, 1)

    def test_pure_data_is_single_leaf(self):
        model = train_tree_classifier([LabeledSample((1.0,), 7), LabeledSample((9.0,), 7)])
        assert model.nodes == (Leaf(7),)
        assert predict_tree(model, (123.0,)) == (7, 0)

    def test_min_split_stops_growth(self):
        model = train_tree_classifier(FOUR, TreeConfig(min_split=5))
        assert model.leaf_count == 1
        # majority of a 2-2 tie goes to the smaller label
        assert predict_tree(model, (0.0,))[0] == 1

    def test_max_depth_stops_growth(self):
        samples = [LabeledSample((float(i),), i % 2) for i in range(8)]
        model = train_tree_classifier(samples, TreeConfig(max_depth=1))
        assert model.depth <= 1

    def test_two_feature_split_prefers_lower_feature_on_tie(self):
        # both features induce the identical (best) partition
        samples = [
            LabeledSample((1.0, 1.0), 1),
            LabeledSample((2.0, 2.0), 1),
            LabeledSample((5.0, 5.0), 2),
            LabeledSample((6.0, 6.0), 2),
        ]
        model = train_tree_classifier(samples)
        assert model.nodes[0].feature == 0

    def test_rejects_empty_and_ragged_input(self):
        with pytest.raises(LearnError):
            train_tree_classifier([])
        with pytest.raises(LearnError):
            train_tree_classifier([LabeledSample((1.0,), 1), LabeledSample((1.0, 2.0), 1)])

    def test_predict_checks_arity(self):
        model = train_tree_classifier(FOUR)
        with pytest.raises(LearnError):
            predict_tree(model, (1.0, 2.0))

    def test_invalid_config(self):
        with pytest.raises(LearnError):
            TreeConfig(min_split=1)
        with pytest.raises(LearnError):
            TreeConfig(max_depth=-1)
        with pytest.raises(LearnError):
            TreeConfig(prune=True)  # pruning needs a seed

    def test_max_depth_zero_is_a_majority_stump(self):
        model = train_tree_classifier(FOUR, TreeConfig(max_depth=0))
        assert model.leaf_count == 1
        assert model.depth == 0

    def test_training_is_deterministic(self):
        rng = Rng(3)
        samples = [
            LabeledSample((rng.uniform(0, 10), rng.uniform(0, 10)), rng.randint(1, 3))
            for _ in range(60)
        ]
        a = train_tree_classifier(samples)
        b = train_tree_classifier(samples)
        assert a.nodes == b.nodes


class TestPruning:
    def mislabeled(self) -> list[LabeledSample]:
        """A clean 1-D boundary plus a few contradicting points."""
        samples = [LabeledSample((float(i),), 1 if i <= 30 else 2) for i in range(60)]
        noisy = [5, 11, 17, 23]
        for i in noisy:
            samples[i] = LabeledSample((float(i),), 2)
        return samples

    def test_pruned_tree_is_no_bigger(self):
        samples = self.mislabeled()
        full = train_tree_classifier(samples)
        pruned = train_tree_classifier(samples, TreeConfig(prune=True, seed=11))
        assert pruned.leaf_count <= full.leaf_count

    def test_pruning_is_seed_deterministic(self):
        samples = self.mislabeled()
        a = train_tree_classifier(samples, TreeConfig(prune=True, seed=11))
        b = train_tree_classifier(samples, TreeConfig(prune=True, seed=11))
        assert a.nodes == b.nodes

    def test_pruned_tree_generalizes_no_worse_here(self):
        samples = self.mislabeled()
        clean = [LabeledSample((float(i) + 0.5,), 1 if i <= 30 else 2) for i in range(60)]
        full = train_tree_classifier(samples)
        pruned = train_tree_classifier(samples, TreeConfig(prune=True, seed=11))
        err_full = sum(predict_tree(full, s.features)[0] != s.label for s in clean)
        err_pruned = sum(predict_tree(pruned, s.features)[0] != s.label for s in clean)
        assert err_pruned <= err_full


class TestRegression:
    SAMPLES = [
        RegressionSample((2.0,), 0.0),
        RegressionSample((4.0,), 0.0),
        RegressionSample((8.0,), 1.0),
        RegressionSample((10.0,), 1.0),
    ]

    def test_step_function_recovered(self):
        model = train_regression_tree(self.SAMPLES)
        assert predict_tree(model, (10.5,)) == (1.0, 1)
        assert predict_tree(model, (1.0,)) == (0.0, 1)
        assert predict_tree(model, (6.0,)) == (0.0, 1)

    def test_leaf_is_mean_of_targets(self):
        samples = [
            RegressionSample((1.0,), 1.0),
            RegressionSample((2.0,), 3.0),
        ]
        # min_split=4 default: two samples stay one leaf
        model = train_regression_tree(samples)
        assert model.nodes == (Leaf(2.0),)

    def test_default_min_split_is_four(self):
        three = self.SAMPLES[:3]
        model = train_regression_tree(three)
        assert model.leaf_count == 1

    def test_rejects_non_finite_target(self):
        with pytest.raises(LearnError):
            RegressionSample((1.0,), float("nan"))
