"""Ordinary-least-squares regression on dataset features."""

import warnings

import pytest

from mvkit import LearnError, predict_linear, train_linear_regression
from mvkit.learners import RegressionSample
from mvkit.rng import Rng


class TestFit:
    def test_exact_line_through_two_points(self):
        model = train_linear_regression(
            [RegressionSample((0.0,), 1.0), RegressionSample((1.0,), 3.0)]
        )
        assert model.intercept == pytest.approx(1.0, abs=1e-12)
        assert model.coefficients[0] == pytest.approx(2.0, abs=1e-12)
        assert predict_linear(model, (2.0,)) == pytest.approx(5.0, abs=1e-12)

    def test_constant_targets_give_zero_slope(self):
        samples = [RegressionSample((float(i),), 4.25) for i in range(5)]
        model = train_linear_regression(samples)
        assert model.intercept == pytest.approx(4.25, abs=1e-9)
        assert model.coefficients[0] == pytest.approx(0.0, abs=1e-9)

    def test_two_features_recover_plane(self):
        rng = Rng(12)
        samples = []
        for _ in range(40):
            x0, x1 = rng.uniform(-3, 3), rng.uniform(-3, 3)
            samples.append(RegressionSample((x0, x1), 0.5 + 2.0 * x0 - 1.5 * x1))
        model = train_linear_regression(samples)
        assert model.intercept == pytest.approx(0.5, abs=1e-9)
        assert model.coefficients[0] == pytest.approx(2.0, abs=1e-9)
        assert model.coefficients[1] == pytest.approx(-1.5, abs=1e-9)

    def test_duplicated_column_still_predicts(self):
        """A singular design falls back to a ridge-jittered solve whose
        predictions match the single-column fit to ~1e-4."""
        rng = Rng(9)
        base = [(rng.uniform(0, 10),) for _ in range(30)]
        single = [RegressionSample(x, 3.0 * x[0] + 1.0) for x in base]
        doubled = [RegressionSample((x[0], x[0]), 3.0 * x[0] + 1.0) for x in base]
        m1 = train_linear_regression(single)
        m2 = train_linear_regression(doubled)
        for x in base:
            assert predict_linear(m2, (x[0], x[0])) == pytest.approx(
                predict_linear(m1, x), abs=1e-4
            )

    def test_residuals_orthogonal_to_design(self):
        rng = Rng(21)
        samples = [
            RegressionSample((rng.uniform(0, 5), rng.uniform(0, 5)), rng.uniform(-1, 1))
            for _ in range(25)
        ]
        model = train_linear_regression(samples)
        residuals = [s.target - predict_linear(model, s.features) for s in samples]
        assert sum(residuals) == pytest.approx(0.0, abs=1e-6)
        for j in range(2):
            dot = sum(r * s.features[j] for r, s in zip(residuals, samples))
            assert dot == pytest.approx(0.0, abs=1e-6)

    def test_overflowing_fit_is_refused_without_a_warning(self):
        """Features near 1e200 are finite, but their squares overflow the
        normal equations even after the ridge fallback: the fit raises
        rather than returning NaN coefficients, and numpy warns of nothing."""
        samples = [RegressionSample((1e200 * i, 2e200 * (i % 3)), float(i)) for i in range(1, 9)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(LearnError) as exc:
                train_linear_regression(samples)
        assert exc.value.category == "non-finite fit"

    def test_rejects_empty_input(self):
        with pytest.raises(LearnError):
            train_linear_regression([])

    def test_predict_checks_arity(self):
        model = train_linear_regression(
            [RegressionSample((0.0,), 1.0), RegressionSample((1.0,), 3.0)]
        )
        with pytest.raises(LearnError):
            predict_linear(model, (1.0, 2.0))
