"""mvkit: representative-set selection and runtime dispatch for multiversioned code.

Given per-dataset runtimes of many optimized versions of the same
routine, mvkit picks a small representative subset that preserves most
of the achievable speedup, learns a model mapping cheap dataset
features to the best version in that subset, compiles the model into a
portable dispatcher document (and optional source text), and simulates
the resulting adaptive binary on held-out data.

The pieces compose as plain functions::

    scenario  = load_scenario(...)      # or generate(SynthConfig(...))
    matrix    = speedups(scenario)
    chosen    = greedy_select(matrix, scenario.code_sizes(),
                              scenario.baseline_binary_size, Constraints(3))
    samples   = make_dc_labels(scenario, matrix, set(chosen.selected))
    model     = train_tree_classifier(samples)
    dispatch  = compile_dispatcher(model)
    outcome   = simulate(test_scenario, dispatch, chosen.selected)

The ``mvkit`` command line wraps the same pipeline over files.
"""

from .dispatch import (
    DEFAULT_TEMPLATE,
    Branch,
    CodeGrowth,
    DispatchError,
    DispatcherSpec,
    Leaf,
    code_growth,
    compile_dispatcher,
    deserialize,
    eval_dispatcher,
    interpret_rendered,
    render_template,
    serialize,
)
from .errors import MvkitError
from .learners import (
    CVReport,
    Condition,
    LabeledSample,
    LearnError,
    LearnerSpec,
    LinearModel,
    RegressionSample,
    Rule,
    RuleConfig,
    RuleListModel,
    TreeBranch,
    TreeConfig,
    TreeLeaf,
    TreeModel,
    best_version,
    cross_validate,
    error_rate,
    make_dc_labels,
    make_ppm_samples,
    ppm_select,
    predict_linear,
    predict_regression,
    predict_rules,
    predict_tree,
    rrse,
    train_linear_regression,
    train_model,
    train_ppm_models,
    train_regression_tree,
    train_rule_list,
    train_tree_classifier,
)
from .modelio import ModelIOError, dumps, load_model, loads, save_model
from .report import Report, ReportBuilder, ReportError, Table, parse, render
from .rng import Rng, mix_seed
from .scenario import (
    DatasetRecord,
    Scenario,
    ScenarioError,
    SpeedupMatrix,
    Version,
    Violation,
    load_scenario,
    save_scenario,
    speedups,
    validate_scenario,
)
from .selection import (
    Constraints,
    PERF_PRIORITY,
    PickStep,
    PruneStep,
    RepresentativeSet,
    SIZE_PRIORITY,
    SelectionError,
    SetMetrics,
    evaluate_set,
    exhaustive_select,
    greedy_select,
    objective,
    prune_redundant,
)
from .simulate import (
    BASELINE,
    DatasetOutcome,
    ORACLE,
    SimulationReport,
    simulate,
)
from .synthgen import (
    GroundTruth,
    SynthConfig,
    SynthError,
    generate,
    generate_test,
    save_ground_truth,
)

__version__ = "0.1.0"
