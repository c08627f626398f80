"""Lazy packages: the public API is unchanged, and a command loads only what it runs.

``mvkit`` and ``mvkit.learners`` import a submodule the first time one of
its public names is read. The API tests pin every public name and the
submodule that defines it. The module-load tests each start a fresh
interpreter and read its ``sys.modules``; none of them measures a time.
The usage guard keeps a public name only while the pipeline runs it.
"""

from __future__ import annotations

import ast
import importlib
import json
import re
from pathlib import Path

import pytest

import mvkit
import mvkit.learners
from mvkit import LabeledSample, RuleConfig, dumps, train_rule_list, train_tree_classifier

from conftest import run_python

# Every public name of each package, by the submodule that defines it.
MVKIT_NAMES = {
    "dispatch": (
        "DEFAULT_TEMPLATE", "Branch", "DispatchError", "DispatcherSpec", "Leaf",
        "compile_dispatcher", "deserialize", "eval_dispatcher", "interpret_rendered",
        "render_template", "serialize",
    ),
    "errors": ("MvkitError",),
    "learners": (
        "CVReport", "Condition", "LabeledSample", "LearnError", "LearnerSpec", "LinearModel",
        "RegressionSample", "Rule", "RuleConfig", "RuleListModel", "TreeConfig", "TreeModel",
        "cross_validate", "error_rate", "make_dc_labels", "make_ppm_samples", "ppm_select",
        "predict_linear", "predict_regression", "predict_rules", "predict_tree", "rrse",
        "train_linear_regression", "train_model", "train_ppm_models", "train_regression_tree",
        "train_rule_list", "train_tree_classifier",
    ),
    "modelio": ("ModelIOError", "dumps", "loads"),
    "report": ("Report", "ReportError", "Table", "parse", "render"),
    "rng": ("Rng", "mix_seed"),
    "scenario": (
        "DatasetRecord", "Scenario", "ScenarioError", "SpeedupMatrix", "Version", "Violation",
        "load_scenario", "save_scenario", "speedups", "validate_scenario",
    ),
    "selection": (
        "Constraints", "PERF_PRIORITY", "PickStep", "PruneStep", "RepresentativeSet", "SIZE_PRIORITY",
        "SelectionError", "SetMetrics", "evaluate_set", "exhaustive_select", "greedy_select",
        "objective",
    ),
    "simulate": ("BASELINE", "DatasetOutcome", "ORACLE", "SimulationReport", "simulate"),
    "synthgen": (
        "GroundTruth", "SynthConfig", "SynthError", "generate", "generate_test", "save_ground_truth",
    ),
}

LEARNERS_NAMES = {
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
    "ppm": ("train_ppm_models", "ppm_select"),
    "metrics": ("error_rate", "rrse"),
    "cv": ("CVReport", "LearnerSpec", "cross_validate", "predict_regression", "train_model"),
}

PACKAGES = [(mvkit, MVKIT_NAMES), (mvkit.learners, LEARNERS_NAMES)]
PACKAGE_IDS = ["mvkit", "mvkit.learners"]


def names_of(table: dict[str, tuple[str, ...]]) -> list[str]:
    return [name for names in table.values() for name in names]


def test_name_counts():
    assert len(set(names_of(MVKIT_NAMES))) == 83
    assert len(set(names_of(LEARNERS_NAMES))) == 28


@pytest.mark.parametrize("package, table", PACKAGES, ids=PACKAGE_IDS)
class TestPublicApi:
    def test_all_is_the_pinned_names(self, package, table):
        assert len(package.__all__) == len(set(package.__all__))
        assert set(package.__all__) == set(names_of(table))

    def test_each_name_is_its_submodules_object(self, package, table):
        for module, names in table.items():
            source = importlib.import_module(f"{package.__name__}.{module}")
            for name in names:
                assert getattr(package, name) is getattr(source, name), name

    def test_star_import_binds_exactly_the_names(self, package, table):
        namespace: dict[str, object] = {}
        exec(f"from {package.__name__} import *", namespace)
        del namespace["__builtins__"]
        assert set(namespace) == set(names_of(table))
        assert all(namespace[n] is getattr(package, n) for n in namespace)

    def test_dir_lists_the_names(self, package, table):
        assert set(names_of(table)) <= set(dir(package))

    def test_unknown_name_raises_attribute_error(self, package, table):
        with pytest.raises(AttributeError, match="no_such_name"):
            package.no_such_name
        assert not hasattr(package, "no_such_name")


# Public names that no src module or benchmark runs, each kept for a reason.
KEPT_UNUSED = {
    "exhaustive_select": "the brute-force optimum that greedy_select is checked against",
    "objective": "f(S), the sum greedy_select grows, that its picks are checked against",
}


def referenced_names(path: Path) -> set[str]:
    """Every name a module reads, every attribute it reads and every name it imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
    return names


def test_every_public_name_is_used_by_the_pipeline():
    """No public name is there for tests alone.

    Each is read by a src module other than the package tables, named in
    bench/*.py, or kept in ``KEPT_UNUSED`` with its reason.
    """
    src = Path(mvkit.__file__).resolve().parent
    used = set().union(*(referenced_names(p) for p in src.rglob("*.py") if p.name != "__init__.py"))
    bench_dir = Path(__file__).resolve().parents[1] / "bench"
    bench = "\n".join(p.read_text(encoding="utf-8") for p in bench_dir.glob("*.py"))
    unused = {n for n in names_of(mvkit._NAMES) if n not in used and not re.search(rf"\b{n}\b", bench)}
    assert unused == set(KEPT_UNUSED)


def test_submodules_still_import_by_name():
    from mvkit import modelio
    from mvkit.learners import rules

    assert modelio is importlib.import_module("mvkit.modelio")
    assert rules is importlib.import_module("mvkit.learners.rules")


def test_version_is_unchanged():
    assert mvkit.__version__ == "0.1.0"


# --- fresh interpreters -----------------------------------------------------------

SIMULATE_CHECK = """
import mvkit
from mvkit import simulate
assert callable(simulate) and simulate.__module__ == "mvkit.simulate", simulate
assert mvkit.simulate is simulate, mvkit.simulate
"""

SIMULATE_ORDERS = {
    "before and after import mvkit.simulate": SIMULATE_CHECK + "import mvkit.simulate\n" + SIMULATE_CHECK,
    "after import mvkit.simulate first": "import mvkit.simulate\n" + SIMULATE_CHECK,
    "after import mvkit.cli, mvkit.simulate": "import mvkit.cli, mvkit.simulate\n" + SIMULATE_CHECK,
    "after an in-process simulate command": """
from mvkit import cli
assert cli.main(["gen", "--versions", "3", "--datasets", "12", "--features", "2",
                 "--seed", "7", "--out-dir", "scen"]) == 0
assert cli.main(["simulate", "--scenario", "scen", "--select-ids", "1,2",
                 "--selector", "oracle", "--out", "report.txt"]) == 0
""" + SIMULATE_CHECK,
}


@pytest.mark.parametrize("code", SIMULATE_ORDERS.values(), ids=SIMULATE_ORDERS.keys())
def test_simulate_stays_the_function(code, tmp_path):
    child = run_python("-c", code, cwd=tmp_path)
    assert child.returncode == 0, child.stderr


def loaded_after(code: str, cwd) -> set[str]:
    """The modules a fresh interpreter holds after running ``code``."""
    child = run_python("-c", code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))", cwd=cwd)
    assert child.returncode == 0, child.stderr
    return set(json.loads(child.stdout.splitlines()[-1]))


def test_import_mvkit_loads_no_submodule(tmp_path):
    assert not {m for m in loaded_after("import mvkit", tmp_path) if m.startswith("mvkit.")}


def test_import_cli_loads_no_numpy(tmp_path):
    assert "numpy" not in loaded_after("import mvkit.cli", tmp_path)


def test_import_rng_loads_no_numpy(tmp_path):
    assert "numpy" not in loaded_after("import mvkit.rng", tmp_path)


def test_simulate_loads_the_learners_only_for_a_bundle(tmp_path):
    loaded = loaded_after(
        "from mvkit import cli\n"
        'assert cli.main(["gen", "--versions", "3", "--datasets", "12", "--features", "2",'
        ' "--seed", "7", "--test-seed", "8", "--out-dir", "scen"]) == 0\n'
        'assert cli.main(["simulate", "--scenario", "scen/test", "--select-ids", "1,2",'
        ' "--selector", "oracle", "--out", "report.txt"]) == 0',
        tmp_path,
    )
    assert "mvkit.simulate" in loaded
    assert not loaded & {"mvkit.learners.cv", "mvkit.learners.ppm"}


def test_simulate_with_a_dispatcher_loads_no_learner_or_model_module(tmp_path):
    (tmp_path / "d.txt").write_text("MVDISPATCH v1; arity=2; nodes=3\nB 0 4.5 1 2\nL 1\nL 2\n", encoding="utf-8")
    loaded = loaded_after(
        "from mvkit import cli\n"
        'assert cli.main(["gen", "--versions", "3", "--datasets", "12", "--features", "2",'
        ' "--seed", "7", "--test-seed", "8", "--out-dir", "scen"]) == 0\n'
        'assert cli.main(["simulate", "--scenario", "scen/test", "--select-ids", "1,2",'
        ' "--dispatcher", "d.txt", "--train-scenario", "scen", "--out", "report.txt"]) == 0',
        tmp_path,
    )
    assert {"mvkit.dispatch", "mvkit.simulate"} <= loaded
    learners = {f"mvkit.learners.{m}" for m in ("cv", "linear", "ppm", "rules", "splits", "trees")}
    assert not loaded & {"mvkit.modelio", *learners}


SAMPLES = [
    LabeledSample((float(x), float(y)), 1 + (x > 3) + 2 * (y > 5))
    for x in range(8)
    for y in range(9)
]

EMIT_MODELS = {
    "tree": lambda: train_tree_classifier(SAMPLES),
    "rules": lambda: train_rule_list(SAMPLES, RuleConfig(min_cover=1)),
}


@pytest.mark.parametrize("train", EMIT_MODELS.values(), ids=EMIT_MODELS.keys())
def test_emit_loads_no_numpy(train, tmp_path):
    (tmp_path / "model.mv").write_text(dumps(train()), encoding="utf-8")
    loaded = loaded_after(
        "from mvkit import cli\n"
        'assert cli.main(["emit", "--model", "model.mv", "--out", "d.txt",'
        ' "--template", "--rendered-out", "d.c"]) == 0',
        tmp_path,
    )
    assert (tmp_path / "d.c").read_text(encoding="utf-8").strip()
    assert "mvkit.dispatch" in loaded
    assert not loaded & {"numpy", "mvkit.scenario", "mvkit.selection"}


def small_selection(tmp_path) -> None:
    """Write a small scenario to ``scen`` and a selection of it to ``sel.rep``."""
    setup = run_python(
        "-c",
        "from mvkit import cli\n"
        'assert cli.main(["gen", "--versions", "5", "--datasets", "40", "--features", "2", "--regions", "3",'
        ' "--seed", "7", "--out-dir", "scen"]) == 0\n'
        'assert cli.main(["select", "--scenario", "scen", "--max-versions", "3", "--out", "sel.rep"]) == 0',
        cwd=tmp_path,
    )
    assert setup.returncode == 0, setup.stderr


def test_train_and_cv_load_no_statistics_module(tmp_path):
    # statistics pulls in fractions and decimal; cv averages with math.fsum instead.
    small_selection(tmp_path)
    commands = [
        ["train", "--scenario", "scen", "--selection", "sel.rep", "--algorithm", algorithm, "--out", f"{algorithm}.mv"]
        for algorithm in ("tree", "rules", "regtree", "linreg")
    ] + [
        ["cv", "--scenario", "scen", "--selection", "sel.rep", "--algorithm", algorithm, "--seed", "7", "--k", "4",
         "--out", f"{algorithm}.rep"]
        for algorithm in ("tree", "rules", "regtree", "linreg")
    ]
    loaded = loaded_after(
        "from mvkit import cli\n" + "".join(f"assert cli.main({c!r}) == 0\n" for c in commands), tmp_path
    )
    assert "mvkit.learners.cv" in loaded
    assert not loaded & {"statistics", "fractions", "decimal"}


def test_linreg_cv_loads_no_dispatcher(tmp_path):
    # Only classifier folds are scored through a compiled dispatcher.
    small_selection(tmp_path)
    command = ["cv", "--scenario", "scen", "--selection", "sel.rep", "--algorithm", "linreg", "--seed", "7", "--k", "4",
               "--out", "linreg.rep"]
    loaded = loaded_after(f"from mvkit import cli\nassert cli.main({command!r}) == 0", tmp_path)
    assert (tmp_path / "linreg.rep").is_file()
    assert "mvkit.learners.cv" in loaded
    assert "mvkit.dispatch" not in loaded
