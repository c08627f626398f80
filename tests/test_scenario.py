"""Scenario tables, speedup derivation, validation, and CSV round-trips."""

import math
import re

import numpy as np
import pytest

from mvkit import (
    Scenario,
    ScenarioError,
    SynthConfig,
    generate,
    load_scenario,
    save_scenario,
    speedups,
    validate_scenario,
)
from mvkit.scenario import DatasetRecord, Version


def two_by_one() -> Scenario:
    versions = (Version(0, "baseline", 1000, True), Version(1, "opt", 500, False))
    datasets = (DatasetRecord(1, (4.0,)),)
    return Scenario(versions=versions, datasets=datasets, runtimes=np.array([[2.0, 1.0]]))


class TestSpeedups:
    def test_smallest_valid_scenario(self):
        m = speedups(two_by_one())
        assert m.entries[m.row_positions([1])[0], 0] == 2.0
        assert m.entries[m.row_positions([0])[0], 0] == 1.0

    def test_baseline_row_is_exactly_one(self, toy_matrix):
        row = toy_matrix.entries[toy_matrix.row_positions([0])[0]].tolist()
        assert row == [1.0, 1.0, 1.0]

    def test_ratio_cases(self):
        versions = (Version(0, "b", 10, True), Version(1, "v", 10, False))
        datasets = (DatasetRecord(1, (0.0,)), DatasetRecord(2, (0.0,)))
        runtimes = np.array([[1.0, 0.5], [3.0, 4.0]])
        m = speedups(Scenario(versions=versions, datasets=datasets, runtimes=runtimes))
        assert m.entries[m.row_positions([1])[0], 0] == 2.0
        assert m.entries[m.row_positions([1])[0], 1] == 0.75

    def test_scaling_invariance(self, toy_scenario, toy_matrix):
        scaled = Scenario(
            versions=toy_scenario.versions,
            datasets=toy_scenario.datasets,
            runtimes=toy_scenario.runtimes * 1000.0,
        )
        m2 = speedups(scaled)
        assert np.array_equal(m2.entries, toy_matrix.entries)

    def test_log_entries_match(self, toy_matrix):
        assert toy_matrix.log_entries == pytest.approx(np.log(toy_matrix.entries))


class TestValidation:
    def test_clean_scenario_has_no_violations(self, toy_scenario):
        assert validate_scenario(toy_scenario) == []

    def test_duplicate_baseline(self):
        versions = (Version(0, "b", 10, True), Version(1, "b2", 10, True))
        datasets = (DatasetRecord(1, (0.0,)),)
        sc = Scenario(versions=versions, datasets=datasets, runtimes=np.ones((1, 2)))
        violations = validate_scenario(sc)
        assert violations[0].category == "baseline count"

    def test_no_baseline(self):
        versions = (Version(0, "a", 10, False), Version(1, "b", 10, False))
        datasets = (DatasetRecord(1, (0.0,)),)
        sc = Scenario(versions=versions, datasets=datasets, runtimes=np.ones((1, 2)))
        assert validate_scenario(sc)[0].category == "baseline count"

    def test_missing_cell_names_dataset_and_version(self):
        versions = tuple(
            Version(i, f"v{i}" if i else "b", 10, i == 0) for i in range(4)
        )
        datasets = tuple(DatasetRecord(i, (0.0,)) for i in (1, 2, 3))
        runtimes = np.ones((3, 4))
        runtimes[1, 3] = np.nan
        sc = Scenario(versions=versions, datasets=datasets, runtimes=runtimes)
        v = validate_scenario(sc)[0]
        assert v.category == "incomplete matrix"
        assert "dataset 2" in v.message and "version 3" in v.message

    def test_nonpositive_runtime(self):
        sc = two_by_one()
        bad = Scenario(
            versions=sc.versions, datasets=sc.datasets, runtimes=np.array([[2.0, -1.0]])
        )
        v = validate_scenario(bad)[0]
        assert v.category == "non-positive measurement"

    def test_two_faults_report_versions_table_first(self):
        versions = (Version(0, "b", 1000, True), Version(1, "v1", -5, False))
        datasets = (DatasetRecord(1, (1.0,)),)
        runtimes = np.array([[1.0, -2.0]])
        sc = Scenario(versions=versions, datasets=datasets, runtimes=runtimes)
        violations = validate_scenario(sc)
        assert [v.table for v in violations] == ["versions", "runtimes"]
        assert all(v.category == "non-positive measurement" for v in violations)

    def test_duplicate_version_id(self):
        versions = (Version(0, "b", 10, True), Version(0, "dup", 10, False))
        datasets = (DatasetRecord(1, (0.0,)),)
        sc = Scenario(versions=versions, datasets=datasets, runtimes=np.ones((1, 2)))
        cats = [v.category for v in validate_scenario(sc)]
        assert "duplicate id" in cats

    def test_non_finite_feature(self):
        versions = (Version(0, "b", 10, True), Version(1, "v", 10, False))
        datasets = (DatasetRecord(1, (math.inf,)),)
        sc = Scenario(versions=versions, datasets=datasets, runtimes=np.ones((1, 2)))
        cats = [v.category for v in validate_scenario(sc)]
        assert "non-finite feature" in cats

    def test_mismatched_feature_arity(self):
        versions = (Version(0, "b", 10, True), Version(1, "v", 10, False))
        datasets = (DatasetRecord(1, (1.0, 2.0)), DatasetRecord(2, (1.0,)))
        sc = Scenario(versions=versions, datasets=datasets, runtimes=np.ones((2, 2)))
        cats = [v.category for v in validate_scenario(sc)]
        assert "feature arity" in cats

    def test_speedups_rejects_invalid_scenario(self):
        versions = (Version(0, "b", 10, True), Version(1, "v", 10, False))
        datasets = (DatasetRecord(1, (0.0,)),)
        sc = Scenario(versions=versions, datasets=datasets, runtimes=np.array([[1.0, 0.0]]))
        with pytest.raises(ScenarioError):
            speedups(sc)


BASELINE_FLAGS = {"no baseline": (False, False), "two baselines": (True, True)}
BASELINE_READERS = {
    "baseline": lambda sc: sc.baseline,
    "baseline_binary_size": lambda sc: sc.baseline_binary_size,
    "speedups": speedups,
}


@pytest.mark.parametrize("read", BASELINE_READERS.values(), ids=BASELINE_READERS.keys())
@pytest.mark.parametrize("flags", BASELINE_FLAGS.values(), ids=BASELINE_FLAGS.keys())
def test_baseline_readers_refuse_any_count_but_one(flags, read):
    versions = tuple(Version(v, f"v{v}", 10, flag) for v, flag in enumerate(flags))
    sc = Scenario(versions=versions, datasets=(DatasetRecord(1, (0.0,)),), runtimes=np.ones((1, 2)))
    with pytest.raises(ScenarioError) as exc:
        read(sc)
    assert exc.value.category == "baseline count"
    assert str(exc.value) == f"baseline count: expected exactly 1 baseline, found {sum(flags)}"


# (table, its first line, or None to keep it; the error after the path)
FIRST_FAULTS = {
    "runtimes row": ("runtimes.csv", None, ":4: expected number, got 'abc'"),
    "runtimes header": (
        "runtimes.csv", "dataset,version_id,runtime_seconds",
        ": expected header dataset_id,version_id,runtime_seconds",
    ),
    "runtimes header past the field limit": (
        "runtimes.csv", "dataset_id,version_id," + " " * 140_000 + "runtime_seconds",
        ":1: field larger than field limit (131072)",
    ),
    "datasets row": ("datasets.csv", None, ":4: expected number, got 'abc'"),
    "datasets header": ("datasets.csv", "dataset,f0,f1", ": expected header id,f0,f1,..."),
    "datasets header past the field limit": (
        "datasets.csv", "id,f0," + " " * 140_000 + "f1", ":1: field larger than field limit (131072)",
    ),
}


@pytest.mark.parametrize("table, header, error", FIRST_FAULTS.values(), ids=FIRST_FAULTS.keys())
def test_first_fault_is_named_before_a_later_csv_error(table, header, error, tmp_path):
    """Line 4 ends in 'abc' and line 51 in a field past the csv limit, so only the row path reads it."""
    paths = [tmp_path / n for n in ("versions.csv", "datasets.csv", "runtimes.csv")]
    save_scenario(generate(SynthConfig(3, 60, 2, 2, seed=1))[0], *paths)
    lines = (tmp_path / table).read_text().split("\n")
    for k, cell in ((3, "abc"), (50, " " * 140_000 + lines[50].rpartition(",")[2])):
        lines[k] = lines[k].rpartition(",")[0] + "," + cell
    lines[0] = header or lines[0]
    (tmp_path / table).write_text("\n".join(lines))
    with pytest.raises(ScenarioError) as exc:
        load_scenario(*paths)
    assert str(exc.value) == f"parse error: {tmp_path / table}{error}"


@pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"], ids=["LF", "CRLF", "CR"])
@pytest.mark.parametrize("table", ["versions.csv", "datasets.csv", "runtimes.csv"])
def test_a_byte_that_is_not_utf8_is_named_at_its_line_and_file_offset(table, end, tmp_path):
    """The decoder counts positions from its chunk; the error counts them from the start of the file."""
    paths = [tmp_path / n for n in ("versions.csv", "datasets.csv", "runtimes.csv")]
    save_scenario(generate(SynthConfig(9, 300, 3, 8, seed=5))[0], *paths)
    data = (tmp_path / table).read_bytes().replace(b"\n", end)
    at = len(data) // 2 + re.search(rb"\d", data[len(data) // 2:]).start()  # a digit, mid-line
    (tmp_path / table).write_bytes(data[:at] + b"\xff" + data[at + 1:])
    with pytest.raises(ScenarioError) as exc:
        load_scenario(*paths)
    line = data[:at].count(end) + 1
    assert str(exc.value) == f"parse error: {tmp_path / table}:{line}: byte 0xff at offset {at} is not UTF-8"


def test_a_byte_that_is_not_utf8_is_named_before_an_earlier_csv_error(tmp_path):
    """The row path decodes the whole table before it parses a row, so line 600's byte wins over line 4's
    field past the csv limit, however far apart they are."""
    paths = [tmp_path / n for n in ("versions.csv", "datasets.csv", "runtimes.csv")]
    save_scenario(generate(SynthConfig(5, 160, 2, 4, seed=21, feature_range=(1, 12)))[0], *paths)
    lines = (b" " + paths[2].read_bytes()).split(b"\n")  # a loose header: the bulk pass refuses the table
    lines[3] += b" " * 140_000
    lines[599] = lines[599][:-1] + b"\xff"
    data = b"\n".join(lines)
    paths[2].write_bytes(data)
    with pytest.raises(ScenarioError) as exc:
        load_scenario(*paths)
    at = data.index(b"\xff")
    assert str(exc.value) == f"parse error: {paths[2]}:600: byte 0xff at offset {at} is not UTF-8"


class TestCsvRoundTrip:
    def test_save_load_identity(self, toy_scenario, tmp_path):
        paths = [tmp_path / n for n in ("versions.csv", "datasets.csv", "runtimes.csv")]
        save_scenario(toy_scenario, *paths)
        loaded = load_scenario(*paths)
        assert loaded.versions == toy_scenario.versions
        assert loaded.datasets == toy_scenario.datasets
        assert np.array_equal(loaded.runtimes, toy_scenario.runtimes)

    def test_save_is_byte_deterministic(self, toy_scenario, tmp_path):
        a = [tmp_path / f"a{n}" for n in ("v.csv", "d.csv", "r.csv")]
        b = [tmp_path / f"b{n}" for n in ("v.csv", "d.csv", "r.csv")]
        save_scenario(toy_scenario, *a)
        save_scenario(toy_scenario, *b)
        for pa, pb in zip(a, b):
            assert pa.read_bytes() == pb.read_bytes()

    def test_load_reports_unknown_id(self, toy_scenario, tmp_path):
        paths = [tmp_path / n for n in ("versions.csv", "datasets.csv", "runtimes.csv")]
        save_scenario(toy_scenario, *paths)
        text = paths[2].read_text()
        paths[2].write_text(text.replace("1,1,", "1,99,", 1))
        with pytest.raises(ScenarioError) as exc:
            load_scenario(*paths)
        assert exc.value.category == "unknown id"

    def test_load_reports_duplicate_cell(self, toy_scenario, tmp_path):
        paths = [tmp_path / n for n in ("versions.csv", "datasets.csv", "runtimes.csv")]
        save_scenario(toy_scenario, *paths)
        with open(paths[2], "a") as fh:
            fh.write("1,1,0.5\n")
        with pytest.raises(ScenarioError) as exc:
            load_scenario(*paths)
        assert exc.value.category == "duplicate cell"

    def test_load_reports_parse_error_with_line(self, toy_scenario, tmp_path):
        paths = [tmp_path / n for n in ("versions.csv", "datasets.csv", "runtimes.csv")]
        save_scenario(toy_scenario, *paths)
        text = paths[2].read_text().replace("1,1,0.5", "1,1,fast", 1)
        paths[2].write_text(text)
        with pytest.raises(ScenarioError) as exc:
            load_scenario(*paths)
        assert exc.value.category == "parse error"
        assert "runtimes.csv" in str(exc.value)

    def test_load_missing_cell_raises_incomplete_matrix(self, toy_scenario, tmp_path):
        paths = [tmp_path / n for n in ("versions.csv", "datasets.csv", "runtimes.csv")]
        save_scenario(toy_scenario, *paths)
        lines = paths[2].read_text().splitlines()
        paths[2].write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ScenarioError) as exc:
            load_scenario(*paths)
        assert exc.value.category == "incomplete matrix"
