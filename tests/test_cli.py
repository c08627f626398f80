"""Command-line pipeline: composability, determinism, exit codes."""

from pathlib import Path

import numpy as np
import pytest

from mvkit import (
    DEFAULT_TEMPLATE, deserialize, eval_dispatcher, interpret_rendered, modelio, parse, render, save_scenario,
)
from mvkit.cli import _config_types, build_parser, main
from mvkit.scenario import DatasetRecord, Scenario, Version

from conftest import (
    DEEP,
    chain_node_lines,
    diamond_lines,
    dispatcher_text,
    make_toy_scenario,
    model_text,
    run_mvkit,
)

GEN_ARGS = [
    "gen",
    "--versions", "5",
    "--datasets", "160",
    "--features", "2",
    "--regions", "4",
    "--seed", "21",
    "--feature-range", "1,12",
    "--test-seed", "77",
    "--test-datasets", "80",
]
SCENARIO_FILES = ("versions.csv", "datasets.csv", "runtimes.csv", "ground_truth.csv")
CONFIG_KEYS = {
    "versions", "datasets", "features", "regions", "seed", "noise_sigma", "winner_range",
    "loser_range", "base_range", "size_range", "feature_range", "test_seed", "test_datasets",
    "out_dir", "scenario", "max_versions", "size_budget", "loss_tol", "min_gain", "mode",
    "report_mode", "out", "selection", "select_ids", "algorithm", "min_split", "max_depth",
    "prune", "prune_holdout", "min_cover", "min_precision", "k", "model", "template",
    "rendered_out", "dispatcher", "selector", "train_scenario",
}


def tree_of(root: Path) -> dict[Path, bytes | None]:
    """Every path under ``root``: a file's bytes, None for a directory."""
    return {p: p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory) -> Path:
    """One generated scenario reused by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    r = run_mvkit(*GEN_ARGS, "--out-dir", root / "scen", cwd=root)
    assert r.returncode == 0, r.stderr
    return root


class TestGen:
    def test_writes_train_and_test_files(self, pipeline_dir):
        for name in SCENARIO_FILES:
            assert (pipeline_dir / "scen" / name).exists()
            assert (pipeline_dir / "scen" / "test" / name).exists()

    def test_same_seed_is_byte_identical(self, pipeline_dir, tmp_path):
        r = run_mvkit(*GEN_ARGS, "--out-dir", tmp_path / "again", cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        for name in SCENARIO_FILES:
            a = (pipeline_dir / "scen" / name).read_bytes()
            b = (tmp_path / "again" / name).read_bytes()
            assert a == b, name

    def test_different_seed_differs(self, pipeline_dir, tmp_path):
        args = list(GEN_ARGS)
        args[args.index("--seed") + 1] = "22"
        r = run_mvkit(*args, "--out-dir", tmp_path / "other", cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        assert (pipeline_dir / "scen" / "runtimes.csv").read_bytes() != (
            tmp_path / "other" / "runtimes.csv"
        ).read_bytes()

    def test_missing_seed_exits_2(self, tmp_path):
        r = run_mvkit(
            "gen", "--versions", "4", "--datasets", "10", "--features", "1",
            "--out-dir", tmp_path / "x", cwd=tmp_path,
        )
        assert r.returncode == 2
        assert "--seed" in r.stderr

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_test_datasets_below_one_exits_2_and_writes_nothing(self, tmp_path, count):
        args = list(GEN_ARGS)
        args[args.index("--test-datasets") + 1] = count
        r = run_mvkit(*args, "--out-dir", tmp_path / "scen", cwd=tmp_path)
        assert r.returncode == 2, r.stderr
        assert f"n_datasets must be >= 1, got {count}" in r.stderr
        assert list(tmp_path.iterdir()) == []

    def test_test_datasets_without_test_seed_exits_2_and_writes_nothing(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        args = list(GEN_ARGS)
        del args[args.index("--test-seed"):args.index("--test-seed") + 2]
        assert main([*args, "--out-dir", "scen"]) == 2
        assert "error: --test-datasets needs --test-seed" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--noise-sigma", "400"), "noise_sigma 400.0 or a range makes a runtime or speedup 0 or inf"),
            (("--feature-range", "0,100000000000000000000000"), "feature_range spans 100000000000000000000000"),
            (("--feature-range", "1,1000000000"), "feature_range spans 999999999 cut slots, more than 10000000"),
        ],
        ids=["noise-factor-overflows", "feature-range-too-wide-to-list", "feature-range-past-the-cap"],
    )
    def test_config_past_the_float_or_index_range_exits_2_and_writes_nothing(
        self, tmp_path, monkeypatch, capsys, flags, message
    ):
        monkeypatch.chdir(tmp_path)
        args = ["gen", "--versions", "5", "--datasets", "10", "--features", "2", "--seed", "1"]
        assert main([*args, *flags, "--out-dir", "scen"]) == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "flags",
        [("--noise-sigma", "1000"), ("--base-range", "1e-300,1e-300", "--winner-range", "1.2,1e300")],
        ids=["noise", "ranges"],
    )
    def test_speedup_past_the_float_range_exits_2_and_writes_nothing(self, tmp_path, monkeypatch, capsys, flags):
        # A speedup t(baseline) / t(version), or a runtime too, leaves the float range: no command could read it.
        monkeypatch.chdir(tmp_path)
        args = ["gen", "--versions", "2", "--datasets", "1", "--features", "1", "--seed", "4", *flags]
        assert main([*args, "--out-dir", "scen"]) == 2
        assert "invalid config: noise_sigma" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestSelect:
    def test_toy_selection_report(self, tmp_path):
        scen = tmp_path / "toy"
        scen.mkdir()
        save_scenario(make_toy_scenario(), *(scen / n for n in SCENARIO_FILES[:3]))
        r = run_mvkit("select", "--scenario", scen, "--max-versions", "3",
                      "--out", tmp_path / "sel.txt", cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        doc = parse((tmp_path / "sel.txt").read_text())
        assert doc.get("selected") == "1,2"
        assert float(doc.get("objective_value")) == pytest.approx(1.3862943611198906)
        trace = doc.table("trace")
        assert [row[1] for row in trace.rows] == ["3", "1", "2"]
        prune = doc.table("prune")
        assert [row[1] for row in prune.rows] == ["3"]

    def test_speedup_past_the_float_range_exits_2(self, tmp_path, capsys):
        scen = tmp_path / "scen"
        scen.mkdir()
        versions = (Version(0, "baseline", 1000, True), Version(1, "v1", 100))
        scenario = Scenario(versions, (DatasetRecord(1, (1.0,)),), np.array([[1e300, 1e-10]]))
        save_scenario(scenario, *(scen / n for n in SCENARIO_FILES[:3]))
        assert main(["select", "--scenario", str(scen), "--max-versions", "1"]) == 2
        err = capsys.readouterr().err
        assert "non-positive measurement: speedups must be finite and > 0: version 1 on dataset 1 has inf" in err

    def test_zero_max_versions_exits_2(self, pipeline_dir):
        r = run_mvkit("select", "--scenario", pipeline_dir / "scen", "--max-versions", "0",
                      cwd=pipeline_dir)
        assert r.returncode == 2
        assert "invalid" in r.stderr.lower()

    def test_report_goes_to_stdout_without_out(self, pipeline_dir):
        r = run_mvkit("select", "--scenario", pipeline_dir / "scen", "--max-versions", "4",
                      cwd=pipeline_dir)
        assert r.returncode == 0
        assert r.stdout.startswith("MVREPORT v1; kind=selection")

    def test_select_report_is_byte_deterministic(self, pipeline_dir):
        a = run_mvkit("select", "--scenario", pipeline_dir / "scen", "--max-versions", "4",
                      cwd=pipeline_dir)
        b = run_mvkit("select", "--scenario", pipeline_dir / "scen", "--max-versions", "4",
                      cwd=pipeline_dir)
        assert a.stdout == b.stdout

    def test_config_file_supplies_defaults_cli_wins(self, pipeline_dir, tmp_path):
        conf = tmp_path / "conf.txt"
        conf.write_text("max_versions=2\n")
        r = run_mvkit("select", "--config", conf, "--scenario", pipeline_dir / "scen",
                      cwd=pipeline_dir)
        assert r.returncode == 0
        assert "n_selected=2" in r.stdout
        r2 = run_mvkit("select", "--config", conf, "--scenario", pipeline_dir / "scen",
                       "--max-versions", "1", cwd=pipeline_dir)
        assert "n_selected=1" in r2.stdout

    def test_config_keys_are_the_flag_dests(self):
        types = _config_types(build_parser())
        assert set(types) == CONFIG_KEYS
        assert types["prune"]("1") is True and types["prune"]("0") is False
        assert types["seed"]("5") == 5
        assert types["winner_range"]("1,2") == (1.0, 2.0)
        assert types["select_ids"]("3,1") == (3, 1)
        assert types["out"]("x.rep") == "x.rep"

    def test_config_value_outside_choices_exits_2(self, pipeline_dir, tmp_path, capsys):
        conf = tmp_path / "conf.txt"
        conf.write_text("mode=bogus\n")
        rc = main(["select", "--config", str(conf), "--scenario", str(pipeline_dir / "scen"),
                   "--max-versions", "1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{conf}:1: invalid choice 'bogus'" in err

    @pytest.mark.parametrize("value", ["true", "yes", "2", ""])
    def test_config_flag_other_than_0_or_1_exits_2(self, pipeline_dir, tmp_path, capsys, value):
        conf = tmp_path / "c.cfg"
        conf.write_text(f"seed=7\nprune={value}\n")
        rc = main(["train", "--config", str(conf), "--scenario", str(pipeline_dir / "scen"),
                   "--select-ids", "1,2", "--algorithm", "tree", "--out", str(tmp_path / "m.mv")])
        assert rc == 2
        assert f"{conf}:2: expected 0 or 1, got {value!r}" in capsys.readouterr().err
        assert not (tmp_path / "m.mv").exists()

    def test_repeated_config_key_exits_2(self, pipeline_dir, tmp_path, capsys):
        conf = tmp_path / "c.cfg"
        conf.write_text("max_versions=1\n# again\nmax_versions=2\n")
        out = tmp_path / "sel.rep"
        rc = main(["select", "--config", str(conf), "--scenario", str(pipeline_dir / "scen"),
                   "--out", str(out)])
        assert rc == 2
        assert f"{conf}:3: config key 'max_versions' repeats" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_config_key_exits_2(self, pipeline_dir, tmp_path):
        conf = tmp_path / "bad.txt"
        conf.write_text("turbo=1\n")
        r = run_mvkit("select", "--config", conf, "--scenario", pipeline_dir / "scen",
                      "--max-versions", "1", cwd=pipeline_dir)
        assert r.returncode == 2


@pytest.fixture(scope="module")
def staged(pipeline_dir):
    """select -> train -> emit once; later tests read the artifacts."""
    scen = pipeline_dir / "scen"
    sel = pipeline_dir / "selection.txt"
    model = pipeline_dir / "model.txt"
    disp = pipeline_dir / "dispatcher.txt"
    r = run_mvkit("select", "--scenario", scen, "--max-versions", "4", "--out", sel,
                  cwd=pipeline_dir)
    assert r.returncode == 0, r.stderr
    r = run_mvkit("train", "--scenario", scen, "--selection", sel,
                  "--algorithm", "tree", "--out", model, cwd=pipeline_dir)
    assert r.returncode == 0, r.stderr
    r = run_mvkit("emit", "--model", model, "--out", disp, "--template",
                  cwd=pipeline_dir)
    assert r.returncode == 0, r.stderr
    return pipeline_dir


class TestTrainCvEmitSimulate:
    def test_emit_writes_parsable_dispatcher_and_rendering(self, staged):
        spec = deserialize((staged / "dispatcher.txt").read_text())
        assert spec.feature_arity == 2
        rendered = (staged / "dispatcher.txt.rendered").read_text()
        assert "select_version" in rendered

    def test_cv_on_planted_scenario_is_exact(self, staged):
        r = run_mvkit("cv", "--scenario", staged / "scen", "--selection", staged / "selection.txt",
                      "--algorithm", "tree", "--seed", "5", cwd=staged)
        assert r.returncode == 0, r.stderr
        doc = parse(r.stdout)
        assert float(doc.get("aggregate")) == 0.0
        assert doc.get("metric") == "error_rate"

    def test_cv_ppm_reports_per_version(self, staged):
        r = run_mvkit("cv", "--scenario", staged / "scen", "--selection", staged / "selection.txt",
                      "--algorithm", "regtree", "--seed", "5", cwd=staged)
        assert r.returncode == 0, r.stderr
        doc = parse(r.stdout)
        assert doc.get("metric") == "rrse_percent"
        assert len(doc.table("versions").rows) == 4

    @pytest.mark.parametrize(
        "args",
        [
            ("select", "--scenario", "scen", "--max-versions", "4"),
            ("select", "--scenario", "scen", "--max-versions", "4", "--mode", "size", "--loss-tol", "0.05"),
            ("cv", "--scenario", "scen", "--selection", "selection.txt", "--algorithm", "tree", "--prune",
             "--seed", "7"),
            ("cv", "--scenario", "scen", "--selection", "selection.txt", "--algorithm", "rules", "--seed", "7"),
            ("simulate", "--scenario", "scen/test", "--selection", "selection.txt",
             "--dispatcher", "dispatcher.txt", "--train-scenario", "scen"),
            ("simulate", "--scenario", "scen/test", "--selection", "selection.txt", "--selector", "oracle"),
        ],
        ids=["select-perf", "select-size", "cv-tree", "cv-rules", "simulate-dispatcher", "simulate-oracle"],
    )
    @pytest.mark.parametrize("mode", ["machine", "human"])
    def test_report_is_the_render_of_its_parse(self, staged, tmp_path, monkeypatch, args, mode):
        monkeypatch.chdir(staged)
        out = tmp_path / "report.txt"
        assert main([*args, "--report-mode", mode, "--out", str(out)]) == 0
        text = out.read_text()
        assert render(parse(text)) == text

    def test_cv_k_larger_than_data_exits_2(self, staged):
        r = run_mvkit("cv", "--scenario", staged / "scen", "--selection", staged / "selection.txt",
                      "--algorithm", "tree", "--seed", "5", "--k", "500", cwd=staged)
        assert r.returncode == 2

    def test_cv_missing_seed_exits_2(self, staged):
        r = run_mvkit("cv", "--scenario", staged / "scen", "--selection", staged / "selection.txt",
                      "--algorithm", "tree", cwd=staged)
        assert r.returncode == 2
        assert "--seed" in r.stderr

    def test_simulate_from_file_matches_memory(self, staged):
        r = run_mvkit("simulate", "--scenario", staged / "scen" / "test",
                      "--selection", staged / "selection.txt",
                      "--dispatcher", staged / "dispatcher.txt",
                      "--train-scenario", staged / "scen", cwd=staged)
        assert r.returncode == 0, r.stderr
        doc = parse(r.stdout)
        assert float(doc.get("fraction_of_representative_oracle")) == 1.0
        assert float(doc.get("mispick_rate")) == 0.0
        assert doc.get("train_overlap_count") == "0"

        # the deserialized dispatcher decides identically in memory
        spec = deserialize((staged / "dispatcher.txt").read_text())
        outcomes = doc.table("outcomes")
        import csv

        with open(staged / "scen" / "test" / "datasets.csv") as fh:
            rows = list(csv.DictReader(fh))
        by_id = {int(row["id"]): (float(row["f0"]), float(row["f1"])) for row in rows}
        for row in outcomes.rows:
            did, chosen = int(row[0]), int(row[1])
            assert eval_dispatcher(spec, by_id[did])[0] == chosen

    def test_simulate_ppm_model_file(self, staged):
        model = staged / "ppm.txt"
        r = run_mvkit("train", "--scenario", staged / "scen",
                      "--selection", staged / "selection.txt",
                      "--algorithm", "regtree", "--out", model, cwd=staged)
        assert r.returncode == 0, r.stderr
        r = run_mvkit("simulate", "--scenario", staged / "scen" / "test",
                      "--selection", staged / "selection.txt", "--model", model, cwd=staged)
        assert r.returncode == 0, r.stderr
        doc = parse(r.stdout)
        assert doc.get("selector_kind") == "ppm"

    @pytest.mark.parametrize("algorithm", ["tree", "rules"])
    def test_simulate_model_matches_the_emitted_dispatcher(self, staged, tmp_path, monkeypatch, algorithm):
        monkeypatch.chdir(staged)
        model, dispatcher = tmp_path / "m.mv", tmp_path / "d.txt"
        learner = ["--scenario", "scen", "--selection", "selection.txt", "--algorithm", algorithm]
        assert main(["train", *learner, "--out", str(model)]) == 0
        assert main(["emit", "--model", str(model), "--out", str(dispatcher)]) == 0
        reports = []
        for flag, path in (("--model", model), ("--dispatcher", dispatcher)):
            out = tmp_path / f"{flag[2:]}.rep"
            simulate = ["simulate", "--scenario", "scen/test", "--selection", "selection.txt", flag, str(path)]
            assert main([*simulate, "--train-scenario", "scen", "--out", str(out)]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]
        assert b"\nselector_kind=dispatcher\n" in reports[0]

    def test_emit_rejects_ppm_bundle(self, staged):
        model = staged / "ppm_emit.txt"
        r = run_mvkit("train", "--scenario", staged / "scen",
                      "--selection", staged / "selection.txt",
                      "--algorithm", "linreg", "--out", model, cwd=staged)
        assert r.returncode == 0, r.stderr
        r = run_mvkit("emit", "--model", model, "--out", staged / "nope.txt", cwd=staged)
        assert r.returncode == 2

    def test_simulate_oracle_and_baseline(self, staged):
        for selector, check in (("oracle", 1.0), ("baseline", None)):
            r = run_mvkit("simulate", "--scenario", staged / "scen" / "test",
                          "--selection", staged / "selection.txt", "--selector", selector,
                          cwd=staged)
            assert r.returncode == 0, r.stderr
            doc = parse(r.stdout)
            if check is not None:
                assert float(doc.get("fraction_of_representative_oracle")) == check
            else:
                assert float(doc.get("geomean_realized")) == pytest.approx(1.0)

    def test_train_scenario_reads_only_its_datasets_table(self, staged, tmp_path):
        train = tmp_path / "train"
        train.mkdir()
        (train / "datasets.csv").write_bytes((staged / "scen" / "test" / "datasets.csv").read_bytes())
        r = run_mvkit("simulate", "--scenario", staged / "scen" / "test",
                      "--select-ids", "1,2,3,4", "--selector", "oracle",
                      "--train-scenario", train, cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        assert parse(r.stdout).get("train_overlap_count") == "80"

    def test_malformed_train_datasets_exits_2_naming_the_line(self, staged, tmp_path):
        train = tmp_path / "train"
        train.mkdir()
        (train / "datasets.csv").write_text("id,f0,f1\n0,1.0,2.0\n\n1,x,2.0\n", encoding="utf-8")
        r = run_mvkit("simulate", "--scenario", staged / "scen" / "test",
                      "--select-ids", "1,2,3,4", "--selector", "oracle",
                      "--train-scenario", train, cwd=tmp_path)
        assert r.returncode == 2, r.stderr
        assert f"{train / 'datasets.csv'}:4: expected number, got 'x'" in r.stderr

    @pytest.mark.parametrize(
        "command",
        [
            ("train", "scen", "--algorithm", "tree", "--out", "m.mv"),
            ("cv", "scen", "--algorithm", "tree", "--seed", "5"),
            ("simulate", "scen/test", "--selector", "oracle"),
        ],
        ids=["train", "cv", "simulate"],
    )
    def test_malformed_selected_line_exits_2_naming_the_file(self, staged, tmp_path, command):
        name, scenario, *rest = command
        text = (staged / "selection.txt").read_text()
        selected = next(line for line in text.splitlines() if line.startswith("selected="))
        (tmp_path / "sel.rep").write_text(text.replace(selected, "selected=4,=,3,2"))
        r = run_mvkit(name, "--scenario", staged / scenario, "--selection", "sel.rep", *rest, cwd=tmp_path)
        assert r.returncode == 2, r.stderr
        assert "internal error" not in r.stderr
        assert "sel.rep: expected comma-separated ids, got '4,=,3,2'" in r.stderr
        assert [p.name for p in tmp_path.iterdir()] == ["sel.rep"]

    def test_explicit_ids_replace_selection_file(self, staged):
        r = run_mvkit("simulate", "--scenario", staged / "scen" / "test",
                      "--select-ids", "1,2,3,4", "--selector", "oracle", cwd=staged)
        assert r.returncode == 0, r.stderr

    def test_bundle_missing_a_version_exits_2_and_writes_nothing(self, staged, tmp_path):
        model = tmp_path / "reg.mv"
        r = run_mvkit("train", "--scenario", staged / "scen", "--select-ids", "2,4",
                      "--algorithm", "regtree", "--out", model, cwd=staged)
        assert r.returncode == 0, r.stderr
        r = run_mvkit("simulate", "--scenario", staged / "scen" / "test", "--select-ids", "4,3,2,1",
                      "--model", model, "--out", tmp_path / "sim.rep", cwd=staged)
        assert r.returncode == 2
        assert "model incomplete: no model for representative version 1\n" in r.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["reg.mv"]

    @pytest.mark.parametrize("algorithm", ["regtree", "linreg"])
    def test_bundle_versions_outside_the_set_are_ignored(self, staged, tmp_path, monkeypatch, algorithm):
        monkeypatch.chdir(staged)
        wide, trimmed = tmp_path / "wide.mv", tmp_path / "trimmed.mv"
        assert main(["train", "--scenario", "scen", "--select-ids", "1,2,3,4", "--algorithm", algorithm,
                     "--out", str(wide)]) == 0
        bundle = modelio.loads(wide.read_text())
        trimmed.write_text(modelio.dumps({v: bundle[v] for v in (2, 3)}))
        reports = []
        for model in (wide, trimmed):
            out = tmp_path / f"{model.stem}.rep"
            assert main(["simulate", "--scenario", "scen/test", "--select-ids", "2,3", "--model", str(model),
                         "--out", str(out)]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]
        assert b"\nselector_kind=ppm\n" in reports[0]

    def test_two_selectors_exit_2(self, staged):
        r = run_mvkit("simulate", "--scenario", staged / "scen" / "test",
                      "--selection", staged / "selection.txt",
                      "--selector", "oracle", "--dispatcher", staged / "dispatcher.txt",
                      cwd=staged)
        assert r.returncode == 2


class TestInputsAndOutputs:
    @pytest.mark.parametrize("command", ["train", "cv"])
    def test_overflowing_least_squares_exits_2_and_writes_nothing(self, pipeline_dir, tmp_path, command):
        """Features scaled by 1e200 stay finite and valid, but the normal
        equations overflow: the fit is refused, with no numpy warning."""
        scen = tmp_path / "scen"
        scen.mkdir()
        for name in ("versions.csv", "runtimes.csv"):
            (scen / name).write_bytes((pipeline_dir / "scen" / name).read_bytes())
        header, *rows = (pipeline_dir / "scen" / "datasets.csv").read_text().splitlines()
        scaled = [",".join([i, *(repr(float(x) * 1e200) for x in xs)]) for i, *xs in (r.split(",") for r in rows)]
        (scen / "datasets.csv").write_text("\n".join([header, *scaled]) + "\n")
        before = tree_of(tmp_path)
        r = run_mvkit(command, "--scenario", scen, "--select-ids", "1,2,3,4", "--algorithm", "linreg",
                      "--seed", "7", "--out", tmp_path / "out", cwd=tmp_path)
        assert r.returncode == 2
        assert "non-finite fit" in r.stderr
        assert "Warning" not in r.stderr
        assert tree_of(tmp_path) == before

    def test_missing_scenario_exits_2(self, tmp_path):
        r = run_mvkit("select", "--scenario", "nope", "--max-versions", "2", cwd=tmp_path)
        assert r.returncode == 2, r.stderr
        assert "cannot read scenario" in r.stderr

    @pytest.mark.parametrize("table, column", [("versions.csv", 1), ("runtimes.csv", 2)])
    def test_cell_past_the_csv_field_limit_exits_2_and_writes_nothing(self, pipeline_dir, tmp_path, table, column):
        (tmp_path / "scen").mkdir()
        for name in SCENARIO_FILES[:3]:
            (tmp_path / "scen" / name).write_bytes((pipeline_dir / "scen" / name).read_bytes())
        lines = (tmp_path / "scen" / table).read_text().split("\n")
        cells = lines[2].split(",")
        cells[column] = " " * 140_000 + cells[column]  # csv refuses a field of more than 131,072 characters
        lines[2] = ",".join(cells)
        (tmp_path / "scen" / table).write_text("\n".join(lines))
        before = tree_of(tmp_path)
        r = run_mvkit("select", "--scenario", "scen", "--max-versions", "2", "--out", "sel.rep", cwd=tmp_path)
        assert r.returncode == 2, r.stderr
        assert f"parse error: {Path('scen') / table}:3: field larger than field limit" in r.stderr
        assert tree_of(tmp_path) == before

    def test_missing_model_exits_2(self, tmp_path):
        r = run_mvkit("emit", "--model", "missing.mv", "--out", "disp.txt", cwd=tmp_path)
        assert r.returncode == 2, r.stderr
        assert "cannot read model" in r.stderr
        assert not (tmp_path / "disp.txt").exists()

    def test_emit_refuses_trailing_content_in_rules_model(self, tmp_path):
        (tmp_path / "rules.mv").write_text(
            "MVMODEL v1; algorithm=rules; arity=1; rules=1; min_cover=2; min_precision=0.7; "
            "seed=-\nR 1 1 0 le 5.5\nD 2\nR 2 1 0 gt 9.5\n"
        )
        r = run_mvkit("emit", "--model", "rules.mv", "--out", "disp.txt", cwd=tmp_path)
        assert r.returncode == 2, r.stderr
        assert "line 4: trailing content" in r.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["rules.mv"]

    def test_missing_template_exits_2_and_writes_nothing(self, staged, tmp_path):
        r = run_mvkit("emit", "--model", staged / "model.txt", "--out", "disp.txt",
                      "--template", "missing.tpl", cwd=tmp_path)
        assert r.returncode == 2, r.stderr
        assert "cannot read template" in r.stderr
        assert list(tmp_path.iterdir()) == []

    def test_bad_template_exits_2_and_writes_nothing(self, staged, tmp_path):
        (tmp_path / "bad.tpl").write_text("{{DISPATCH}}\n")
        r = run_mvkit("emit", "--model", staged / "model.txt", "--out", "disp.txt",
                      "--template", "bad.tpl", "--rendered-out", "disp.c", cwd=tmp_path)
        assert r.returncode == 2, r.stderr
        assert "template error" in r.stderr
        assert [p.name for p in tmp_path.iterdir()] == ["bad.tpl"]

    @pytest.mark.parametrize("marks", [0, 2])
    @pytest.mark.parametrize("algorithm", ["tree", "rules"])
    def test_template_needs_exactly_one_dispatch_marker(self, staged, tmp_path, algorithm, marks):
        if algorithm == "tree":
            model = staged / "model.txt"
        else:
            model = tmp_path / "rules.mv"
            model.write_text(
                "MVMODEL v1; algorithm=rules; arity=1; rules=1; min_cover=2; min_precision=0.7; "
                "seed=-\nR 1 1 0 le 5.5\nD 2\n"
            )
        marker = "    {{DISPATCH}}\n"
        (tmp_path / "marks.tpl").write_text(DEFAULT_TEMPLATE.replace(marker, marker * marks))
        before = tree_of(tmp_path)
        r = run_mvkit("emit", "--model", model, "--out", "disp.txt",
                      "--template", "marks.tpl", "--rendered-out", "disp.c", cwd=tmp_path)
        assert r.returncode == 2, r.stderr
        assert f"template error: template needs exactly one {{{{DISPATCH}}}} placeholder, found {marks}" in r.stderr
        assert tree_of(tmp_path) == before

    @pytest.mark.parametrize(
        "command",
        [
            ("gen", "--config", "d/runtimes.csv", "--out-dir", "d"),
            ("select", "--scenario", "scen", "--max-versions", "2", "--out", "scen/versions.csv"),
            ("train", "--scenario", "scen", "--selection", "sel.rep", "--algorithm", "tree",
             "--out", "sel.rep"),
            ("cv", "--scenario", "scen", "--selection", "sel.rep", "--algorithm", "tree", "--seed", "5",
             "--out", "scen/runtimes.csv"),
            ("emit", "--model", "m.mv", "--out", "m.mv"),
            ("emit", "--model", "m.mv", "--out", "d.txt", "--template", "--rendered-out", "d.txt"),
            ("simulate", "--scenario", "scen", "--selection", "sel.rep", "--selector", "oracle",
             "--out", "sel.rep"),
        ],
        ids=["gen", "select", "train", "cv", "emit", "emit-same-path-twice", "simulate"],
    )
    def test_output_collision_exits_2(self, staged, tmp_path, command):
        (tmp_path / "d").mkdir()
        (tmp_path / "d" / "runtimes.csv").write_text("versions=3\ndatasets=5\nfeatures=1\nseed=1\n")
        (tmp_path / "scen").mkdir()
        for name in SCENARIO_FILES[:3]:
            (tmp_path / "scen" / name).write_bytes((staged / "scen" / name).read_bytes())
        (tmp_path / "sel.rep").write_bytes((staged / "selection.txt").read_bytes())
        (tmp_path / "m.mv").write_bytes((staged / "model.txt").read_bytes())
        before = tree_of(tmp_path)
        r = run_mvkit(*command, cwd=tmp_path)
        assert r.returncode == 2, r.stderr
        assert "collides" in r.stderr
        assert tree_of(tmp_path) == before

    def test_unwritable_report_out_exits_2(self, staged, tmp_path):
        r = run_mvkit("select", "--scenario", staged / "scen", "--max-versions", "2",
                      "--out", "nodir/x.rep", cwd=tmp_path)
        assert r.returncode == 2, r.stderr
        assert "cannot write nodir/x.rep" in r.stderr
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_model_out_exits_2(self, staged, tmp_path):
        r = run_mvkit("train", "--scenario", staged / "scen", "--selection", staged / "selection.txt",
                      "--algorithm", "tree", "--out", "nodir/m.mv", cwd=tmp_path)
        assert r.returncode == 2, r.stderr
        assert "cannot write nodir/m.mv" in r.stderr

    @pytest.mark.parametrize("blocker, is_dir", [("test", False), ("runtimes.csv", True)],
                             ids=["test-is-a-file", "table-is-a-directory"])
    def test_gen_failed_write_leaves_no_output(self, tmp_path, blocker, is_dir):
        path = tmp_path / "e" / blocker
        path.parent.mkdir()
        if is_dir:
            path.mkdir()
        else:
            path.write_text("keep\n")
        r = run_mvkit(*GEN_ARGS, "--out-dir", "e", cwd=tmp_path)
        assert r.returncode == 2, r.stderr
        assert f"cannot write e/{blocker}:" in r.stderr
        files = [p for p in tmp_path.rglob("*") if p.is_file()]
        assert files == ([] if is_dir else [path])
        assert is_dir or path.read_text() == "keep\n"
        directories = sorted(p for p in tmp_path.rglob("*") if p.is_dir())
        assert directories == ([path.parent, path] if is_dir else [path.parent])  # no e/test left behind

    def test_unwritable_out_dir_exits_2(self, tmp_path):
        (tmp_path / "file").write_text("")
        r = run_mvkit(*GEN_ARGS, "--out-dir", tmp_path / "file" / "scen", cwd=tmp_path)
        assert r.returncode == 2, r.stderr
        assert "cannot write" in r.stderr

    def test_rendered_out_without_template_exits_2(self, staged, tmp_path):
        r = run_mvkit("emit", "--model", staged / "model.txt", "--out", "d.txt",
                      "--rendered-out", "d.c", cwd=tmp_path)
        assert r.returncode == 2, r.stderr
        assert "--template" in r.stderr
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "outputs",
        [["nodir/d.txt"], ["d.txt", "--template", "--rendered-out", "nodir/d.c"]],
        ids=["dispatcher", "rendered"],
    )
    def test_emit_failed_write_leaves_no_output(self, staged, tmp_path, outputs):
        r = run_mvkit("emit", "--model", staged / "model.txt", "--out", *outputs, cwd=tmp_path)
        assert r.returncode == 2, r.stderr
        assert "cannot write nodir/" in r.stderr
        assert list(tmp_path.iterdir()) == []

    def test_emit_onto_a_directory_leaves_no_output(self, staged, tmp_path):
        (tmp_path / "out" / "d.c").mkdir(parents=True)
        r = run_mvkit("emit", "--model", staged / "model.txt", "--out", "out/d.txt",
                      "--template", "--rendered-out", "out/d.c", cwd=tmp_path)
        assert r.returncode == 2, r.stderr
        assert "cannot write out/d.c" in r.stderr
        assert [p.name for p in (tmp_path / "out").iterdir()] == ["d.c"]
        assert list((tmp_path / "out" / "d.c").iterdir()) == []


class TestDeepDocuments:
    def test_simulate_deep_chain_dispatcher(self, tmp_path):
        scen = tmp_path / "toy"
        scen.mkdir()
        save_scenario(make_toy_scenario(), *(scen / n for n in SCENARIO_FILES[:3]))
        (tmp_path / "chain.txt").write_text(dispatcher_text(chain_node_lines(DEEP)))
        r = run_mvkit("simulate", "--scenario", scen, "--select-ids", "1,2,3",
                      "--dispatcher", "chain.txt", cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        assert parse(r.stdout).get("selector_kind") == "dispatcher"

    def test_emit_deep_model_tree(self, tmp_path):
        (tmp_path / "deep.mv").write_text(model_text(chain_node_lines(DEEP)))
        r = run_mvkit("emit", "--model", "deep.mv", "--out", "disp.txt", cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        assert (tmp_path / "disp.txt").read_text() == dispatcher_text(chain_node_lines(DEEP))

    def test_emit_deep_model_tree_with_template(self, tmp_path):
        (tmp_path / "deep.mv").write_text(model_text(chain_node_lines(DEEP)))
        r = run_mvkit("emit", "--model", "deep.mv", "--out", "disp.txt", "--template",
                      "--rendered-out", "disp.c", cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        spec = deserialize((tmp_path / "disp.txt").read_text())
        rendered = (tmp_path / "disp.c").read_text()
        assert len(rendered.splitlines()) == 4 * DEEP + 3
        for x in (-1.0, 0.0, 1500.5, DEEP - 1.0, float(DEEP)):
            assert interpret_rendered(rendered, (x,)) == eval_dispatcher(spec, (x,))[0]

    def test_learners_grow_a_chain_as_deep_as_the_data(self, tmp_path):
        # f0 = i and v1 wins exactly on odd i: every split peels off one
        # dataset, so both trees are a chain of n - 1 branches.
        n = 1500
        runtimes = np.ones((n, 2))
        runtimes[:, 1] = [0.5 if i % 2 else 2.0 for i in range(n)]
        scenario = Scenario(
            versions=(Version(0, "baseline", 100, True), Version(1, "v1", 100, False)),
            datasets=tuple(DatasetRecord(i, (float(i),)) for i in range(n)),
            runtimes=runtimes,
        )
        scen = tmp_path / "alt"
        scen.mkdir()
        save_scenario(scenario, *(scen / name for name in SCENARIO_FILES[:3]))
        common = ("train", "--scenario", scen, "--select-ids", "1", "--max-depth", "5000")
        r = run_mvkit(*common, "--algorithm", "tree", "--out", "tree.mv", cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        r = run_mvkit(*common, "--algorithm", "regtree", "--min-split", "2", "--out", "reg.mv",
                      cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        tree = modelio.loads((tmp_path / "tree.mv").read_text())
        bundle = modelio.loads((tmp_path / "reg.mv").read_text())
        assert (tree.depth, len(tree.nodes)) == (n - 1, 2 * n - 1)
        assert {v: m.depth for v, m in bundle.items()} == {1: n - 1}
        r = run_mvkit("emit", "--model", "tree.mv", "--out", "disp.txt", "--template",
                      cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        r = run_mvkit("simulate", "--scenario", scen, "--select-ids", "1",
                      "--dispatcher", "disp.txt", cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        assert float(parse(r.stdout).get("fraction_of_representative_oracle")) == 1.0

    @pytest.mark.parametrize("template", [[], ["--template"]], ids=["document", "rendered"])
    def test_emit_refuses_diamond_model_tree(self, tmp_path, template):
        (tmp_path / "diamond.mv").write_text(model_text(diamond_lines(20)))
        r = run_mvkit("emit", "--model", "diamond.mv", "--out", "disp.txt", *template,
                      cwd=tmp_path)
        assert r.returncode == 2, r.stderr
        assert "invalid dispatcher" in r.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["diamond.mv"]
