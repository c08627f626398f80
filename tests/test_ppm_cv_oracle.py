"""Linear-regression cross validation on one feature matrix against the per-sample code it replaced.

The oracle below is the earlier regressor branch of ``cross_validate`` with the
``train_linear_regression``, ``predict_linear`` and ``make_ppm_samples`` it called,
verbatim: every fold copied its samples into lists, built a design matrix from
their feature tuples and predicted each test sample from the tuple of
coefficients. On seeded sample sets (arity 1 to 4, 12 to 400 samples, k in
{2, 3, 5, 10}), including duplicated and constant columns that need the ridge
fallback, features near 1e300 whose fit is refused, samples of mixed arity,
constant targets, too few samples and k below 2, both must return equal
``CVReport``s or raise equal errors.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
import pytest

from mvkit.errors import MvkitError
from mvkit.learners.cv import CVReport, LearnerSpec, _folds, cross_validate
from mvkit.learners.linear import RIDGE_JITTER, LinearModel
from mvkit.learners.metrics import rrse
from mvkit.learners.samples import LearnError, RegressionSample, check_samples
from mvkit.learners.samples import make_ppm_samples as new_make_ppm_samples
from mvkit.rng import Rng, mix_seed
from mvkit.scenario import DatasetRecord, Scenario, SpeedupMatrix, Version, speedups

# --- oracle: the per-sample regressor cross validation, verbatim -----------------------------------


def train_linear_regression(samples: Sequence[RegressionSample]) -> LinearModel:
    """Least-squares fit of target = intercept + coefficients . features.

    Solves the normal equations directly; a singular design (collinear or
    duplicated columns) gets a ridge jitter of 1e-8 on the diagonal, and a
    fit still not finite after that (features that overflow) is refused.
    """
    import numpy as np  # here, not at the top: modelio loads this module for LinearModel alone

    check_samples(samples)
    design = np.hstack(
        [np.ones((len(samples), 1)), np.array([s.features for s in samples], dtype=float)]
    )
    targets = np.array([s.target for s in samples], dtype=float)
    with np.errstate(all="ignore"):  # an overflow shows as a non-finite beta
        gram = design.T @ design
        moment = design.T @ targets
        for system in (gram, gram + RIDGE_JITTER * np.eye(gram.shape[0])):
            try:
                beta = np.linalg.solve(system, moment)
            except np.linalg.LinAlgError:
                continue
            if np.isfinite(beta).all():
                return LinearModel(intercept=float(beta[0]), coefficients=tuple(float(b) for b in beta[1:]))
    raise LearnError("non-finite fit", "least squares has no finite solution, even with the ridge fallback")


def predict_linear(model: LinearModel, x: Sequence[float]) -> float:
    import numpy as np

    if len(x) != model.arity:
        raise LearnError("feature arity", f"expected arity {model.arity}, got {len(x)}")
    return model.intercept + float(np.dot(model.coefficients, x))


def make_ppm_samples(scenario: Scenario, matrix: SpeedupMatrix, version_id: int) -> list[RegressionSample]:
    """Per-version regression pairs: features -> ln s(version, d)."""
    if matrix.dataset_ids != scenario.dataset_ids:
        raise LearnError("dataset mismatch", "matrix and scenario list different datasets")
    logs = matrix.log_entries[matrix.row_positions(matrix.representative([version_id], LearnError))[0]]
    return [
        RegressionSample(features=d.features, target=float(logs[i]))
        for i, d in enumerate(scenario.datasets)
    ]


def old_cross_validate(samples: Sequence[RegressionSample], k: int = 10, seed: int = 0) -> CVReport:
    """``cross_validate`` for ``LearnerSpec("linreg")``: its regressor branch, with the
    linreg trainer and ``predict_regression`` resolved to the functions above."""
    if k < 2:
        raise LearnError("invalid config", f"k must be >= 2, got {k}")
    if len(samples) < k:
        raise LearnError("not enough data", f"{len(samples)} samples cannot fill {k} folds")

    labels = [0] * len(samples)
    fold_of = _folds(labels, k, Rng(mix_seed(seed, 0)))
    per_fold: list[float] = []
    confusion: dict[tuple[int, int], int] = {}
    for fold in range(k):
        train = [s for i, s in enumerate(samples) if fold_of[i] != fold]
        test = [s for i, s in enumerate(samples) if fold_of[i] == fold]
        model = train_linear_regression(train)
        predictions = [predict_linear(model, s.features) for s in test]
        actual = [s.target for s in test]
        train_mean = math.fsum(s.target for s in train) / len(train)
        per_fold.append(rrse(predictions, actual, train_mean))

    return CVReport(
        k=k,
        seed=seed,
        metric_name="rrse_percent",
        per_fold=tuple(per_fold),
        aggregate=math.fsum(per_fold) / len(per_fold),
        fold_sizes=tuple(fold_of.count(f) for f in range(k)),
        fold_of_sample=tuple(fold_of),
        confusion=tuple(sorted((a, p, n) for (a, p), n in confusion.items())),
    )


# --- seeded cases --------------------------------------------------------------------------------

KINDS = ("plain", "integer", "duplicated", "constant", "huge", "ragged", "flat targets", "too few", "k below 2")
SEEDS = range(270)
LINREG = LearnerSpec("linreg")


def random_case(seed: int) -> tuple[str, list[RegressionSample], int, int]:
    """(kind, samples, k, cv seed): a noisy linear target over ``arity`` features, shaped by ``kind``."""
    rng = Rng(mix_seed(3232, seed))
    kind = KINDS[seed % len(KINDS)]
    arity, k = rng.randint(1, 4), (2, 3, 5, 10)[rng.randint(0, 3)]
    n = rng.randint(12, 60) if seed % 3 else rng.randint(61, 400)
    if kind == "too few":
        n = rng.randint(0, k - 1)
    if kind == "k below 2":
        k = rng.randint(-1, 1)
    scale = 10.0 ** rng.randint(-3, 3)
    rows = [[float(rng.randint(0, 9)) if kind == "integer" else rng.uniform(-1, 1) * scale for _ in range(arity)] for _ in range(n)]
    weights = [rng.uniform(-2, 2) for _ in range(arity)]
    targets = [0.5 + sum(w * x for w, x in zip(weights, row)) / scale + rng.uniform(-1, 1) * rng.random() for row in rows]
    column = rng.randint(0, arity - 1)
    if kind == "duplicated":
        rows = [row + [row[column]] for row in rows]
    if kind == "constant":
        value = 2.0 ** rng.randint(-3, 3) if rng.randint(0, 3) else 0.0  # exactly collinear with the intercept
        rows = [row[:column] + [value] + row[column + 1:] for row in rows]
    if kind == "huge" or kind == "ragged" and rng.randint(0, 2) == 0:  # a ragged set may also fail to fit
        for row in rows[rng.randint(0, n - 1):]:
            row[column] = rng.uniform(0.5, 1.5) * 1e300
    if kind == "ragged":
        odd = rng.randint(0, n - 1)
        rows[odd] = rows[odd] + [1.0] if rng.randint(0, 1) or arity == 1 else rows[odd][1:]
    if kind == "flat targets":
        targets = [targets[0]] * n
    return kind, [RegressionSample(tuple(row), t) for row, t in zip(rows, targets)], k, rng.randint(0, 10**6)


def outcome(fn, *args):
    """``fn``'s result, or its error's type, category and message."""
    try:
        return fn(*args)
    except MvkitError as exc:
        return (type(exc).__name__, exc.category, str(exc))


@pytest.mark.parametrize("seed", SEEDS)
def test_linreg_cv_matches_oracle(seed):
    kind, samples, k, cv_seed = random_case(seed)
    new = outcome(cross_validate, LINREG, samples, k, cv_seed)
    old = outcome(old_cross_validate, samples, k, cv_seed)
    assert new == old, kind


def scenario_case(seed: int) -> Scenario:
    """A scenario of 3 to 6 versions and 12 to 200 datasets, runtimes log-linear in the features plus noise."""
    rng = Rng(mix_seed(3333, seed))
    n_versions, n_data, arity = rng.randint(3, 6), rng.randint(12, 200), rng.randint(1, 4)
    versions = tuple(Version(v, f"v{v}", 100 + v, v == 0) for v in range(n_versions))
    datasets = tuple(DatasetRecord(d, tuple(float(rng.randint(0, 20)) for _ in range(arity))) for d in range(n_data))
    slopes = [[rng.uniform(-0.1, 0.1) for _ in range(arity)] for _ in versions]
    runtimes = np.array([[math.exp(sum(a * x for a, x in zip(slope, d.features)) + rng.uniform(-0.2, 0.2)) for slope in slopes] for d in datasets])
    return Scenario(versions, datasets, runtimes)


@pytest.mark.parametrize("seed", range(12))
def test_cv_of_every_version_matches_oracle(seed):
    """The path of ``mvkit cv --algorithm linreg``: samples per version, then one CV each."""
    scenario = scenario_case(seed)
    matrix = speedups(scenario)
    for v in scenario.version_ids[1:]:
        samples = new_make_ppm_samples(scenario, matrix, v)
        assert samples == make_ppm_samples(scenario, matrix, v)
        for k in (2, 5, 10):
            assert cross_validate(LINREG, samples, k, mix_seed(seed, v)) == old_cross_validate(samples, k, mix_seed(seed, v))


def test_cases_cover_every_kind_and_error(monkeypatch):
    """The seeded cases reach the ridge fallback, every error and both ways mixed arity fails."""
    solve, rescued = np.linalg.solve, {}

    def counting_solve(system, moment):
        try:
            return solve(system, moment)
        except np.linalg.LinAlgError:
            rescued[seed] = kind
            raise

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    kinds, errors, odd_folds, ragged = {}, {}, set(), set()
    for seed in SEEDS:
        kind, samples, k, cv_seed = random_case(seed)
        got = outcome(cross_validate, LINREG, samples, k, cv_seed)
        if isinstance(got, tuple):
            errors[got[1]] = errors.get(got[1], 0) + 1
            ragged |= {got[1]} if kind == "ragged" else set()
            rescued.pop(seed, None)
        else:
            kinds[kind] = kinds.get(kind, 0) + 1
        if kind == "ragged":
            lengths = [len(s.features) for s in samples]
            odd = next(i for i, m in enumerate(lengths) if lengths.count(m) == 1)
            odd_folds.add(_folds([0] * len(samples), k, Rng(mix_seed(cv_seed, 0)))[odd] == 0)
    assert {"plain", "integer", "duplicated", "constant"} <= kinds.keys()
    assert min(kinds.values()) >= 20
    assert {kind: list(rescued.values()).count(kind) for kind in ("duplicated", "constant")} == {"duplicated": 30, "constant": 30}
    assert errors.keys() == {"non-finite fit", "feature arity", "degenerate actuals", "not enough data", "invalid config"}
    assert min(errors.values()) >= 20
    assert odd_folds == {True, False}  # the odd sample in fold 0's test set, and in its training set
    assert ragged == {"feature arity", "non-finite fit"}  # fold 0 fits before it meets an odd test sample


def test_features_become_an_array_once_per_call(monkeypatch):
    """One call reads its samples' features into an array once; the per-sample code did so once per fold."""
    built = []

    def counting(builder):
        def build(obj, *args, **kwargs):
            if isinstance(obj, list) and obj and isinstance(obj[0], tuple):
                built.append(len(obj))
            return builder(obj, *args, **kwargs)

        return build

    for name in ("array", "asarray"):
        monkeypatch.setattr(np, name, counting(getattr(np, name)))
    samples = random_case(0)[1]
    for k in (2, 5, 10):
        built.clear()
        new = cross_validate(LINREG, samples, k, 7)
        assert built == [len(samples)]
        built.clear()
        assert old_cross_validate(samples, k, 7) == new
        assert len(built) == k
