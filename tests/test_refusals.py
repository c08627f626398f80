"""Refusals of the document readers, constructors and API arguments.

Each case feeds one malformed input and checks the error class, its
category and its message, so a refusal that stops firing, or starts
naming something else, fails here.
"""

import numpy as np
import pytest

from mvkit import (
    DEFAULT_TEMPLATE,
    DispatchError,
    LabeledSample,
    LearnError,
    LearnerSpec,
    LinearModel,
    ModelIOError,
    RegressionSample,
    ReportError,
    Rng,
    Scenario,
    ScenarioError,
    SpeedupMatrix,
    compile_dispatcher,
    cross_validate,
    deserialize,
    dumps,
    interpret_rendered,
    loads,
    make_dc_labels,
    make_ppm_samples,
    parse,
    predict_regression,
    render_template,
    rrse,
    speedups,
    train_model,
    train_regression_tree,
    train_tree_classifier,
)

from conftest import make_toy_scenario

CLASSIFIER = train_tree_classifier([LabeledSample((1.0,), 1), LabeledSample((3.0,), 2)])
REGRESSOR = train_regression_tree([RegressionSample((1.0,), 0.5), RegressionSample((3.0,), 0.25)])


def _refusal(error, call, *args):
    """The (category, message) of the ``error`` that ``call(*args)`` raises."""
    with pytest.raises(error) as exc:
        call(*args)
    return exc.value.category, exc.value.message


# --- document readers ----------------------------------------------------------


def test_a_blank_dispatcher_document_is_refused():
    assert _refusal(DispatchError, deserialize, "") == ("parse error", "line 1: empty dispatcher document")


def test_a_blank_model_document_is_refused():
    assert _refusal(ModelIOError, loads, "\n \n") == ("parse error", "line 1: empty model document")


def test_a_rule_list_that_ends_before_its_rule_count_is_refused():
    text = "MVMODEL v1; algorithm=rules; arity=1; rules=2\nR 1 1 0 le 5.5\n"
    assert _refusal(ModelIOError, loads, text) == ("parse error", "line 3: expected 2 rules, text ended")


@pytest.mark.parametrize(
    "text, message",
    [
        ("MVREPORT v1; kind=cv\n[table t\nfold\n[end]\n", "line 2: malformed table header '[table t'"),
        ("MVREPORT v1; kind=cv\n[table t]", "line 2: table 't' missing column row"),
    ],
    ids=["unclosed-header", "header-last"],
)
def test_a_malformed_report_table_is_refused(text, message):
    assert _refusal(ReportError, parse, text) == ("parse error", message)


@pytest.mark.parametrize(
    "rendered, message",
    [
        ("if (x[0] <= 1) return 1; else return 2;", "expected '{', got 'return'"),
        ("if (y <= 1) { return 1; } else { return 2; }", "expected feature reference, got 'y'"),
        ("if (x[0] <= 1) { goto out; } else { return 2; }", "unexpected token 'goto'"),
    ],
    ids=["no-brace", "not-a-feature", "stray-word"],
)
def test_a_rendering_outside_the_default_template_shape_is_refused(rendered, message):
    assert _refusal(DispatchError, interpret_rendered, rendered, (0.0,)) == ("interpret error", message)


def test_a_rendering_cut_short_is_refused():
    rendered = render_template(compile_dispatcher(CLASSIFIER), DEFAULT_TEMPLATE)
    cut = rendered[: rendered.index("return")]
    assert _refusal(DispatchError, interpret_rendered, cut, (0.0,)) == (
        "interpret error", "unexpected end of rendered text",
    )


# --- constructors ----------------------------------------------------------------


def test_a_scenario_whose_runtimes_have_the_wrong_shape_is_refused():
    toy = make_toy_scenario()
    assert _refusal(ScenarioError, Scenario, toy.versions, toy.datasets, np.ones((4, 3))) == (
        "matrix shape", "runtimes shape (4, 3) does not match 3 datasets x 4 versions",
    )


def _matrix(**changes):
    """A valid two-version, two-dataset matrix with ``changes`` applied."""
    fields = dict(baseline_id=0, version_ids=(0, 1), dataset_ids=(7, 8), entries=np.array([[1.0, 1.0], [2.0, 0.5]]))
    return SpeedupMatrix(**(fields | changes))


@pytest.mark.parametrize(
    "changes, category, message",
    [
        ({"entries": np.ones((2, 3))}, "matrix shape", "speedup shape (2, 3) does not match 2 versions x 2 datasets"),
        ({"baseline_id": 5}, "baseline count", "baseline 5 not among versions"),
        ({"entries": np.array([[1.0, 0.5], [2.0, 0.5]])}, "baseline row", "baseline speedups must equal 1.0 exactly"),
    ],
    ids=["shape", "baseline-missing", "baseline-row"],
)
def test_a_speedup_matrix_that_breaks_its_invariants_is_refused(changes, category, message):
    assert _matrix().baseline_id == 0
    assert _refusal(ScenarioError, lambda: _matrix(**changes)) == (category, message)


# --- API arguments ---------------------------------------------------------------


@pytest.mark.parametrize("make_samples, version", [(make_dc_labels, (1,)), (make_ppm_samples, 1)], ids=["dc", "ppm"])
def test_samples_from_a_matrix_of_other_datasets_are_refused(make_samples, version):
    toy = make_toy_scenario()
    other = speedups(Scenario(toy.versions, toy.datasets[:2], toy.runtimes[:2]))
    assert _refusal(LearnError, make_samples, toy, other, version) == (
        "dataset mismatch", "matrix and scenario list different datasets",
    )


NO_FEATURES = {
    "tree": LabeledSample((), 1),
    "rules": LabeledSample((), 2),
    "regtree": RegressionSample((), 0.5),
    "linreg": RegressionSample((), 0.25),
}


@pytest.mark.parametrize("algorithm", sorted(NO_FEATURES))
def test_samples_with_no_features_are_refused_by_training(algorithm):
    assert _refusal(LearnError, train_model, LearnerSpec(algorithm), [NO_FEATURES[algorithm]] * 2) == (
        "feature arity", "samples have no features",
    )


@pytest.mark.parametrize("algorithm", sorted(NO_FEATURES))
def test_samples_with_no_features_are_refused_by_cross_validation(algorithm):
    assert _refusal(LearnError, cross_validate, LearnerSpec(algorithm), [NO_FEATURES[algorithm]] * 4, 2) == (
        "feature arity", "samples have no features",
    )


def test_rrse_of_lists_that_differ_in_length_is_refused():
    assert _refusal(LearnError, rrse, [1.0, 2.0], [1.0], 0.0) == (
        "length mismatch", "predicted has 2 values, actual has 1 (need equal, >= 1)",
    )


def test_a_classifier_tree_cannot_predict_a_speedup():
    assert _refusal(LearnError, predict_regression, CLASSIFIER, (1.0,)) == (
        "model kind", "classifier tree cannot serve as a regressor",
    )


def test_a_regression_tree_does_not_compile_to_a_dispatcher():
    assert _refusal(DispatchError, compile_dispatcher, REGRESSOR) == (
        "model kind", "only classifier trees compile to dispatchers",
    )


@pytest.mark.parametrize(
    "model, message",
    [
        ({1: REGRESSOR, 2: CLASSIFIER}, "regtree bundle must hold regression trees only"),
        ({1: LinearModel(0.0, (1.0,)), 2: REGRESSOR}, "linreg bundle must hold linear models only"),
        (42, "cannot serialize int"),
    ],
    ids=["regtree-bundle", "linreg-bundle", "not-a-model"],
)
def test_a_model_of_the_wrong_kind_is_not_serialized(model, message):
    assert _refusal(ModelIOError, dumps, model) == ("model kind", message)


def test_an_empty_integer_range_is_refused():
    with pytest.raises(ValueError, match=r"^empty integer range \[5, 3\]$"):
        Rng(0).randint(5, 3)
