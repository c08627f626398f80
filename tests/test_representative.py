"""What ships is decided once: the representative set and the compile decision.

Every set ships the baseline, so a representative set names candidates only:
``SpeedupMatrix.representative`` sorts it, keeps each id once and refuses the
baseline and unknown ids through the caller's error class. Only
``compile_dispatcher`` decides which models become dispatchers. Node
documents refuse a NaN threshold and a non-finite regression leaf.
"""

import hashlib
from pathlib import Path

import pytest

from mvkit import modelio
from mvkit.cli import main
from mvkit.dispatch import DispatchError, deserialize
from mvkit.learners.cv import LearnerSpec
from mvkit.learners.ppm import train_ppm_models
from mvkit.learners.samples import LearnError, make_dc_labels, make_ppm_samples
from mvkit.scenario import speedups
from mvkit.selection import SelectionError, evaluate_set, objective
from mvkit.simulate import simulate

from conftest import dispatcher_text, model_text, run_mvkit

QUICK_START_GEN = [
    "gen", "--versions", "5", "--datasets", "160", "--features", "2", "--regions", "4",
    "--seed", "21", "--feature-range", "1,12", "--test-seed", "77", "--test-datasets", "80",
]
BASELINE_NAMED = "representative version 0 is the baseline, which every set ships"


@pytest.fixture(scope="module")
def scen(tmp_path_factory) -> Path:
    """The README quick-start scenario, with its held-out test scenario under test/."""
    root = tmp_path_factory.mktemp("rep") / "scen"
    assert main([*QUICK_START_GEN, "--out-dir", str(root)]) == 0
    return root


def files_in(directory: Path) -> list[str]:
    return sorted(p.name for p in directory.iterdir())


class TestRepresentative:
    def test_sorts_and_keeps_each_id_once(self, toy_matrix):
        assert toy_matrix.representative([3, 1, 3, 2, 1], SelectionError) == (1, 2, 3)
        assert toy_matrix.representative(iter({2}), SelectionError) == (2,)
        assert toy_matrix.representative((), SelectionError) == ()

    @pytest.mark.parametrize("error", [SelectionError, LearnError, DispatchError])
    def test_raises_the_callers_error_class(self, toy_matrix, error):
        with pytest.raises(error) as exc:
            toy_matrix.representative([1, 0], error)
        assert type(exc.value) is error
        assert (exc.value.category, exc.value.message) == ("unknown version", BASELINE_NAMED)
        with pytest.raises(error) as exc:
            toy_matrix.representative([1, 42], error)
        assert type(exc.value) is error
        assert (exc.value.category, exc.value.message) == (
            "unknown version", "representative version 42 is not in the matrix"
        )

    @pytest.mark.parametrize(
        "call, error",
        [
            (lambda s, m, ids: objective(m, ids), SelectionError),
            (lambda s, m, ids: evaluate_set(m, ids), SelectionError),
            (lambda s, m, ids: make_dc_labels(s, m, ids), LearnError),
            (lambda s, m, ids: make_ppm_samples(s, m, ids[-1]), LearnError),
            (lambda s, m, ids: train_ppm_models(LearnerSpec("linreg"), s, m, ids), LearnError),
            (lambda s, m, ids: simulate(s, "oracle", ids), DispatchError),
        ],
        ids=["objective", "evaluate_set", "make_dc_labels", "make_ppm_samples", "train_ppm_models", "simulate"],
    )
    @pytest.mark.parametrize("bad, message", [(0, BASELINE_NAMED), (42, "representative version 42 is not in the matrix")])
    def test_every_caller_refuses_through_it(self, toy_scenario, call, error, bad, message):
        with pytest.raises(error) as exc:
            call(toy_scenario, speedups(toy_scenario), (1, bad))
        assert type(exc.value) is error
        assert (exc.value.category, exc.value.message) == ("unknown version", message)

    def test_a_repeated_id_counts_once(self, toy_scenario):
        matrix = speedups(toy_scenario)
        assert objective(matrix, [2, 1, 2]) == objective(matrix, {1, 2})
        assert make_dc_labels(toy_scenario, matrix, [3, 1, 3]) == make_dc_labels(toy_scenario, matrix, {1, 3})
        once, twice = simulate(toy_scenario, "oracle", (1,)), simulate(toy_scenario, "oracle", (1, 1))
        assert once.multiversioning_growth == twice.multiversioning_growth == 0.1
        assert sorted(train_ppm_models(LearnerSpec("linreg"), toy_scenario, matrix, [3, 1, 3])) == [1, 3]


class TestBaselineInTheSetExits2:
    @pytest.mark.parametrize(
        "command",
        [
            ("train", ".", "--algorithm", "tree", "--out", "m.mv"),
            ("train", ".", "--algorithm", "regtree", "--out", "m.mv"),
            ("cv", ".", "--algorithm", "tree", "--seed", "3", "--out", "cv.rep"),
            ("cv", ".", "--algorithm", "linreg", "--seed", "3", "--out", "cv.rep"),
            ("simulate", "test", "--selector", "oracle", "--out", "sim.rep"),
        ],
        ids=["train-tree", "train-regtree", "cv-tree", "cv-linreg", "simulate"],
    )
    def test_names_the_baseline_and_writes_nothing(self, scen, tmp_path, command):
        name, scenario, *rest = command
        before = files_in(scen)
        r = run_mvkit(name, "--scenario", scen / scenario, "--select-ids", "0,1", *rest, cwd=tmp_path)
        assert r.returncode == 2, r.stderr
        assert f"mvkit {name}: invalid input: unknown version: {BASELINE_NAMED}\n" == r.stderr
        assert files_in(tmp_path) == []
        assert files_in(scen) == before

    def test_an_unknown_id_is_an_unknown_version(self, scen, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        args = ["--scenario", str(scen / "test"), "--select-ids", "1,9", "--selector", "oracle", "--out", "s.rep"]
        assert main(["simulate", *args]) == 2
        assert "unknown version: representative version 9 is not in the matrix\n" in capsys.readouterr().err
        assert files_in(tmp_path) == []


class TestCompileDecision:
    def test_emit_on_a_bundle_exits_2_naming_simulate_model(self, scen, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        train = ["train", "--scenario", str(scen), "--select-ids", "1,2", "--algorithm", "regtree", "--out", "b.mv"]
        assert main(train) == 0
        assert main(["emit", "--model", "b.mv", "--out", "d.txt", "--template"]) == 2
        err = capsys.readouterr().err
        assert "model kind: " in err and "simulate --model" in err
        assert files_in(tmp_path) == ["b.mv"]

    @pytest.mark.parametrize("algorithm", ["regtree", "linreg"])
    def test_train_with_an_empty_set_exits_2_and_writes_nothing(self, scen, tmp_path, capsys, monkeypatch, algorithm):
        monkeypatch.chdir(tmp_path)
        train = ["train", "--scenario", str(scen), "--select-ids", "", "--algorithm", algorithm, "--out", "b.mv"]
        assert main(train) == 2
        assert "empty bundle: a PPM bundle needs at least one version model\n" in capsys.readouterr().err
        assert files_in(tmp_path) == []

    # Machine-mode reports of `simulate --model` on the quick-start test scenario,
    # pinned: a tree compiles as `emit` would and a bundle drives `simulate` itself.
    @pytest.mark.parametrize(
        "algorithm, ids, digest",
        [
            ("tree", "1,2,3", "d42e9d252588d1558747ff79da367053820b44d88c5fa68240b73a65f97c9a51"),
            ("regtree", "1,2", "cd015e2cba31bd1e26881b7e981ae0d650ea85b4fb290307b7625542c993be84"),
        ],
    )
    def test_simulate_model_reports_are_unchanged(self, scen, tmp_path, monkeypatch, algorithm, ids, digest):
        monkeypatch.chdir(tmp_path)
        assert main(["train", "--scenario", str(scen), "--select-ids", ids, "--algorithm", algorithm, "--out", "m.mv"]) == 0
        assert main(["simulate", "--scenario", str(scen / "test"), "--select-ids", ids, "--model", "m.mv",
                     "--out", "sim.rep"]) == 0
        assert hashlib.sha256((tmp_path / "sim.rep").read_bytes()).hexdigest() == digest


class TestNonFiniteNodes:
    NAN_BRANCH = ["B 0 nan 1 2", "L 1", "L 2"]

    def test_a_nan_threshold_is_refused_naming_its_line(self):
        with pytest.raises(DispatchError) as exc:
            deserialize(dispatcher_text(self.NAN_BRANCH))
        assert (exc.value.category, exc.value.message) == ("parse error", "line 2: threshold is NaN")
        with pytest.raises(modelio.ModelIOError) as exc:
            modelio.loads(model_text(self.NAN_BRANCH))
        assert (exc.value.category, exc.value.message) == ("parse error", "line 2: threshold is NaN")

    @pytest.mark.parametrize("threshold", ["inf", "-inf"])
    def test_an_infinite_threshold_still_loads(self, threshold):
        lines = [f"B 0 {threshold} 1 2", "L 1", "L 2"]
        assert deserialize(dispatcher_text(lines)).nodes[0].threshold == float(threshold)
        assert modelio.loads(model_text(lines)).nodes[0].threshold == float(threshold)

    def test_simulate_refuses_a_nan_dispatcher(self, scen, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "d.txt").write_text("MVDISPATCH v1; arity=2; nodes=3\n" + "\n".join(self.NAN_BRANCH) + "\n")
        args = ["--scenario", str(scen / "test"), "--select-ids", "1,2", "--dispatcher", "d.txt", "--out", "s.rep"]
        assert main(["simulate", *args]) == 2
        assert "parse error: line 2: threshold is NaN\n" in capsys.readouterr().err
        assert files_in(tmp_path) == ["d.txt"]

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_a_non_finite_regtree_leaf_is_refused_naming_its_line(self, scen, tmp_path, capsys, monkeypatch, value):
        monkeypatch.chdir(tmp_path)
        assert main(["train", "--scenario", str(scen), "--select-ids", "1,2", "--algorithm", "regtree",
                     "--out", "b.mv"]) == 0
        lines = (tmp_path / "b.mv").read_text().splitlines()
        k = next(k for k, line in enumerate(lines) if line.startswith("L "))
        lines[k] = f"L {value}"
        (tmp_path / "b.mv").write_text("\n".join(lines) + "\n")
        message = f"line {k + 1}: leaf {float(value)} is not finite"
        with pytest.raises(modelio.ModelIOError) as exc:
            modelio.loads((tmp_path / "b.mv").read_text())
        assert (exc.value.category, exc.value.message) == ("parse error", message)
        args = ["--scenario", str(scen / "test"), "--select-ids", "1,2", "--model", "b.mv", "--out", "s.rep"]
        assert main(["simulate", *args]) == 2
        assert f"parse error: {message}\n" in capsys.readouterr().err
        assert files_in(tmp_path) == ["b.mv"]
