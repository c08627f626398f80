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

import importlib
import sys
import types

__version__ = "0.1.0"


class _Package(types.ModuleType):
    """A package whose public names load their submodules on first use.

    Loading a submodule binds it on its package, but never over a public
    name: ``mvkit.simulate`` is both, and stays the function.
    """

    def __setattr__(self, name: str, value: object) -> None:
        if not (isinstance(value, types.ModuleType) and name in self.__all__):
            super().__setattr__(name, value)


def _lazy(package: str, sources: dict[str, tuple[str, ...]]):
    """``__all__`` and the PEP 562 ``__getattr__`` and ``__dir__`` of ``package``.

    ``sources`` maps each submodule to the public names it defines. A name
    imports its submodule when first read and is then cached in the
    package's globals.
    """
    module = sys.modules[package]
    namespace = vars(module)
    origin = {name: sub for sub, names in sources.items() for name in names}

    def __getattr__(name: str):
        if name not in origin:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        namespace[name] = getattr(importlib.import_module(f"{package}.{origin[name]}"), name)
        return namespace[name]

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | origin.keys())

    module.__class__ = _Package
    return list(origin), __getattr__, __dir__


# Every public name, by the submodule that defines it. ``mvkit.learners``
# takes the ``learners.*`` entries as its own table.
_NAMES = {
    "dispatch": (
        "DEFAULT_TEMPLATE", "Branch", "DispatchError", "DispatcherSpec", "Leaf", "compile_dispatcher",
        "deserialize", "eval_dispatcher", "interpret_rendered", "render_template", "serialize",
    ),
    "errors": ("MvkitError",),
    "learners.cv": ("CVReport", "LearnerSpec", "cross_validate", "train_model"),
    "learners.linear": ("LinearModel", "predict_linear", "train_linear_regression"),
    "learners.metrics": ("error_rate", "rrse"),
    "learners.ppm": ("predict_regression", "ppm_select", "train_ppm_models"),
    "learners.rules": ("Condition", "Rule", "RuleConfig", "RuleListModel", "predict_rules", "train_rule_list"),
    "learners.samples": ("LabeledSample", "LearnError", "RegressionSample", "make_dc_labels", "make_ppm_samples"),
    "learners.trees": ("TreeConfig", "TreeModel", "predict_tree", "train_regression_tree", "train_tree_classifier"),
    "modelio": ("ModelIOError", "dumps", "loads"),
    "report": ("Report", "ReportError", "Table", "parse", "render"),
    "rng": ("Rng", "mix_seed"),
    "scenario": (
        "DatasetRecord", "Scenario", "ScenarioError", "SpeedupMatrix", "Version", "Violation",
        "load_scenario", "save_scenario", "speedups", "validate_scenario",
    ),
    "selection": (
        "Constraints", "PERF_PRIORITY", "PickStep", "PruneStep", "RepresentativeSet", "SIZE_PRIORITY",
        "SelectionError", "SetMetrics", "evaluate_set", "exhaustive_select", "greedy_select", "objective",
    ),
    "simulate": ("BASELINE", "DatasetOutcome", "ORACLE", "SimulationReport", "simulate"),
    "synthgen": (
        "GroundTruth", "SynthConfig", "SynthError", "generate", "generate_test", "save_ground_truth",
    ),
}

__all__, __getattr__, __dir__ = _lazy(__name__, _NAMES)
