"""Version-mapping learners: direct classification and per-version regression.

Two families map dataset features to a version choice. Direct
classification (DC) trains one classifier whose labels are version ids: a
decision tree or an ordered rule list. Performance prediction (PPM)
trains one regressor per representative version on log speedups and picks
the argmax at dispatch time. Both come with error-rate / RRSE metrics and
a deterministic k-fold cross-validation harness.
"""

from .. import _lazy

__all__, __getattr__, __dir__ = _lazy(__name__, {
    "samples": (
        "LabeledSample", "RegressionSample", "LearnError", "make_dc_labels",
        "make_ppm_samples",
    ),
    "trees": (
        "TreeModel", "TreeConfig", "train_tree_classifier",
        "train_regression_tree", "predict_tree",
    ),
    "rules": ("RuleListModel", "Rule", "Condition", "RuleConfig", "train_rule_list", "predict_rules"),
    "linear": ("LinearModel", "train_linear_regression", "predict_linear"),
    "ppm": ("train_ppm_models", "ppm_select", "predict_regression"),
    "metrics": ("error_rate", "rrse"),
    "cv": ("CVReport", "LearnerSpec", "cross_validate", "train_model"),
})
