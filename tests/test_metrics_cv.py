"""Error-rate and RRSE metrics plus the k-fold cross-validation protocol."""

import math
from collections import Counter

import pytest

from mvkit import (
    LearnError,
    LearnerSpec,
    cross_validate,
    error_rate,
    eval_dispatcher,
    mix_seed,
    predict_rules,
    predict_tree,
    rrse,
    train_model,
)
from mvkit.learners import LabeledSample, RegressionSample, cv
from mvkit.learners.samples import best_versions


class TestMetrics:
    def test_error_rate_exact(self):
        assert error_rate([1, 2, 3, 4], [1, 2, 0, 0]) == 0.5
        assert error_rate([1, 1], [1, 1]) == 0.0
        assert error_rate([1, 1], [2, 2]) == 1.0

    def test_error_rate_length_mismatch(self):
        with pytest.raises(LearnError):
            error_rate([1], [1, 2])

    def test_rrse_known_value(self):
        # errors 1,2 vs mean-offsets 1,1 -> 100*sqrt(5/2)
        assert rrse([1.0, 2.0], [2.0, 4.0], 3.0) == pytest.approx(
            100.0 * math.sqrt(2.5), abs=1e-9
        )

    def test_rrse_perfect_prediction_is_zero(self):
        assert rrse([2.0, 4.0], [2.0, 4.0], 3.0) == 0.0

    def test_rrse_mean_prediction_is_hundred(self):
        assert rrse([3.0, 3.0], [2.0, 4.0], 3.0) == pytest.approx(100.0, abs=1e-12)

    def test_rrse_degenerate_actuals(self):
        with pytest.raises(LearnError) as exc:
            rrse([1.0, 1.0], [5.0, 5.0], 5.0)
        assert exc.value.category == "degenerate actuals"


class TestBestVersion:
    def test_ties_break_by_size_then_id(self):
        import numpy as np

        from mvkit.scenario import SpeedupMatrix

        entries = np.array([[1.0], [2.0], [2.0], [2.0]])
        m = SpeedupMatrix(
            baseline_id=0, version_ids=(0, 1, 2, 3), dataset_ids=(1,), entries=entries
        )
        # equal speedups: smaller code size wins
        assert best_versions(m, (1, 2, 3), {1: 300, 2: 100, 3: 200})[0] == 2
        # equal sizes: smaller id wins
        assert best_versions(m, (1, 2, 3), {1: 100, 2: 100, 3: 100})[0] == 1


def classed(n: int, n_classes: int = 2) -> list[LabeledSample]:
    return [LabeledSample((float(i), float(i % 7)), i % n_classes) for i in range(n)]


class TestCvProtocol:
    def test_even_fold_sizes(self):
        r = cross_validate(LearnerSpec("tree"), classed(20), k=10, seed=1)
        assert r.fold_sizes == (2,) * 10

    def test_uneven_fold_sizes_differ_by_at_most_one(self):
        r = cross_validate(LearnerSpec("tree"), classed(23), k=10, seed=1)
        assert sorted(r.fold_sizes) == [2, 2, 2, 2, 2, 2, 2, 3, 3, 3]
        assert sum(r.fold_sizes) == 23

    def test_every_sample_tested_exactly_once(self):
        r = cross_validate(LearnerSpec("tree"), classed(23), k=10, seed=1)
        assert len(r.fold_of_sample) == 23
        counts = Counter(r.fold_of_sample)
        assert sorted(counts.keys()) == list(range(10))
        assert all(counts[f] == r.fold_sizes[f] for f in range(10))

    def test_stratification_within_one_per_class(self):
        samples = classed(23, 3)
        r = cross_validate(LearnerSpec("tree"), samples, k=5, seed=9)
        per_class: dict[int, Counter] = {}
        for idx, fold in enumerate(r.fold_of_sample):
            per_class.setdefault(samples[idx].label, Counter())[fold] += 1
        for counter in per_class.values():
            counts = [counter.get(f, 0) for f in range(5)]
            assert max(counts) - min(counts) <= 1

    def test_same_seed_reproduces_folds_and_metrics(self):
        a = cross_validate(LearnerSpec("tree"), classed(23), k=10, seed=1)
        b = cross_validate(LearnerSpec("tree"), classed(23), k=10, seed=1)
        assert a.fold_of_sample == b.fold_of_sample
        assert a.per_fold == b.per_fold
        assert a.aggregate == b.aggregate

    def test_different_seed_changes_folds(self):
        a = cross_validate(LearnerSpec("tree"), classed(23), k=10, seed=1)
        b = cross_validate(LearnerSpec("tree"), classed(23), k=10, seed=2)
        assert a.fold_of_sample != b.fold_of_sample

    def test_aggregate_is_mean_of_folds(self):
        r = cross_validate(LearnerSpec("tree"), classed(30, 3), k=5, seed=4)
        assert r.aggregate == pytest.approx(sum(r.per_fold) / 5, abs=1e-12)

    def test_k_below_two_rejected(self):
        with pytest.raises(LearnError) as exc:
            cross_validate(LearnerSpec("tree"), classed(30), k=1, seed=1)
        assert exc.value.category == "invalid config"

    def test_too_few_samples_rejected(self):
        with pytest.raises(LearnError) as exc:
            cross_validate(LearnerSpec("tree"), classed(5), k=10, seed=1)
        assert exc.value.category == "not enough data"

    def test_confusion_counts_sum_to_sample_count(self):
        r = cross_validate(LearnerSpec("tree"), classed(30, 3), k=5, seed=4)
        assert sum(c for _, _, c in r.confusion) == 30


class TestCvScoresTheDispatcher:
    """Tree and rules folds predict through the dispatcher `emit` would ship."""

    SPECS = {"tree": LearnerSpec("tree"), "rules": LearnerSpec("rules", min_cover=1)}

    @pytest.mark.parametrize("spec", SPECS.values(), ids=SPECS.keys())
    def test_every_test_sample_is_routed_by_a_fold_dispatcher(self, spec, monkeypatch):
        routed: list = []

        def spy(dispatcher, x):
            routed.append(dispatcher)
            return eval_dispatcher(dispatcher, x)

        monkeypatch.setattr(cv, "eval_dispatcher", spy)
        r = cross_validate(spec, classed(30, 3), k=5, seed=4)
        assert len(routed) == 30
        assert len({id(d) for d in routed}) == 5
        assert sum(c for _, _, c in r.confusion) == 30

    @pytest.mark.parametrize("spec", SPECS.values(), ids=SPECS.keys())
    def test_fold_errors_equal_the_models_own_predictions(self, spec):
        samples = classed(30, 3)
        r = cross_validate(spec, samples, k=5, seed=4)
        predict = predict_tree if spec.algorithm == "tree" else predict_rules
        for fold in range(5):
            train = [s for s, f in zip(samples, r.fold_of_sample) if f != fold]
            test = [s for s, f in zip(samples, r.fold_of_sample) if f == fold]
            model = train_model(spec, train, seed=mix_seed(4, fold + 1))
            wrong = sum(predict(model, s.features)[0] != s.label for s in test)
            assert r.per_fold[fold] == wrong / len(test)


class TestCvRegression:
    def regression_samples(self, n: int = 40) -> list[RegressionSample]:
        return [RegressionSample((float(i),), 2.0 + 0.5 * (i % 9)) for i in range(n)]

    def test_regression_cv_uses_rrse(self):
        r = cross_validate(LearnerSpec("linreg"), self.regression_samples(), k=5, seed=2)
        assert r.metric_name == "rrse_percent"
        assert r.aggregate >= 0.0

    def test_perfectly_linear_targets_give_near_zero_rrse(self):
        samples = [RegressionSample((float(i),), 3.0 * i + 1.0) for i in range(40)]
        r = cross_validate(LearnerSpec("linreg"), samples, k=5, seed=2)
        assert r.aggregate == pytest.approx(0.0, abs=1e-6)

    def test_regtree_cv_runs(self):
        r = cross_validate(LearnerSpec("regtree"), self.regression_samples(), k=4, seed=3)
        assert r.metric_name == "rrse_percent"
        assert len(r.per_fold) == 4

    def test_rrse_denominator_uses_fold_training_mean(self):
        # min_split above the training size forces a single-leaf model that
        # predicts the training mean, whose RRSE is exactly 100 only when
        # the denominator uses that same training mean
        samples = [RegressionSample((0.0,), 1.0) for _ in range(6)]
        samples += [RegressionSample((10.0,), 5.0) for _ in range(6)]
        r = cross_validate(LearnerSpec("regtree", min_split=12), samples, k=2, seed=0)
        for value in r.per_fold:
            assert value == pytest.approx(100.0, abs=1e-9)


class TestLearnerSpec:
    def test_unknown_algorithm_rejected(self):
        with pytest.raises(LearnError):
            LearnerSpec("forest")

    def test_dc_flags(self):
        assert LearnerSpec("tree").is_dc
        assert LearnerSpec("rules").is_dc
        assert not LearnerSpec("regtree").is_dc
        assert not LearnerSpec("linreg").is_dc
