"""The columnar scenario path against the row-by-row loops it replaced.

The ``oracle_*`` functions are the scalar loader, assembler and validator
that ``load_scenario`` and ``validate_scenario`` used to be, and
``oracle_best_version`` is the per-column argmax ``best_versions``
replaced. The columnar code must agree with them exactly: equal scenarios
with bit-identical runtimes, equal (category, message) for every rejected
table, equal violation lists and equal picks.

The oracle numbers a row by its position among the non-blank rows, and the
loader by its physical line; the generated tables hold no blank lines, so
both agree. Blank lines are tested on their own below.

The loader reads ``datasets.csv`` and ``runtimes.csv`` in one ``np.loadtxt``
pass and hands any table that pass refuses to the row path. The last part
holds the loader against that row path alone (``_bulk`` patched to refuse
everything): on the seeded tables, on hand-made edge cases and on every
CSV mutation of the fuzz gate, both give bit-identical scenarios or equal
errors. Tables ``gen`` writes must load without the row path, and their load
must allocate at most three times the size of ``runtimes.csv``.
"""

from __future__ import annotations

import csv
import io
import math
import random
import shutil
import tracemalloc
import warnings
from collections import Counter
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from mvkit import scenario as scenario_module
from mvkit.cli import main
from mvkit.learners.samples import best_versions
from mvkit.scenario import (
    DatasetRecord,
    Scenario,
    ScenarioError,
    SpeedupMatrix,
    Version,
    Violation,
    load_scenario,
    validate_scenario,
)

from test_fuzz_inputs import CASES_PER_PAIR, PAIRS as FUZZ_PAIRS, SETUP as FUZZ_SETUP, case_rng, mutate

# --- the scalar oracle ---------------------------------------------------------


def oracle_validate(scenario: Scenario) -> list[Violation]:
    violations: list[Violation] = []
    baseline_ids = [v.id for v in scenario.versions if v.is_baseline]
    if len(baseline_ids) != 1:
        violations.append(
            Violation(
                "versions",
                tuple(sorted(baseline_ids)),
                "baseline count",
                f"expected exactly 1 baseline, found {len(baseline_ids)}",
            )
        )
    seen: set[int] = set()
    for v in scenario.versions:
        if v.id < 0:
            violations.append(Violation("versions", (v.id,), "invalid id", f"version id {v.id} is negative"))
        if v.id in seen:
            violations.append(Violation("versions", (v.id,), "duplicate id", f"version id {v.id} appears twice"))
        seen.add(v.id)
        if v.code_size < 1:
            violations.append(
                Violation(
                    "versions", (v.id,), "non-positive measurement", f"version {v.id} has code_size {v.code_size} < 1"
                )
            )
    arity = len(scenario.datasets[0].features) if scenario.datasets else 0
    seen = set()
    for d in scenario.datasets:
        if d.id < 0:
            violations.append(Violation("datasets", (d.id,), "invalid id", f"dataset id {d.id} is negative"))
        if d.id in seen:
            violations.append(Violation("datasets", (d.id,), "duplicate id", f"dataset id {d.id} appears twice"))
        seen.add(d.id)
        if len(d.features) != arity or arity < 1:
            violations.append(
                Violation(
                    "datasets",
                    (d.id,),
                    "feature arity",
                    f"dataset {d.id} has arity {len(d.features)}, expected {max(arity, 1)}",
                )
            )
        for j, x in enumerate(d.features):
            if not math.isfinite(x):
                violations.append(
                    Violation("datasets", (d.id, j), "non-finite feature", f"dataset {d.id} feature f{j} is {x}")
                )
    for i, d in enumerate(scenario.datasets):
        for j, v in enumerate(scenario.versions):
            t = scenario.runtimes[i, j]
            if math.isnan(t):
                violations.append(
                    Violation(
                        "runtimes",
                        (d.id, v.id),
                        "incomplete matrix",
                        f"runtime for (dataset {d.id}, version {v.id}) is missing",
                    )
                )
            elif not math.isfinite(t) or t <= 0:
                violations.append(
                    Violation(
                        "runtimes",
                        (d.id, v.id),
                        "non-positive measurement",
                        f"runtime for (dataset {d.id}, version {v.id}) is {t}",
                    )
                )
    if len(scenario.versions) < 2 or len(scenario.datasets) < 1:
        violations.append(
            Violation(
                "scenario",
                (),
                "scenario size",
                f"need at least 2 versions and 1 dataset, found "
                f"{len(scenario.versions)} and {len(scenario.datasets)}",
            )
        )
    return violations


def _oracle_rows(path: Path) -> list[list[str]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return [row for row in csv.reader(fh) if row and any(cell.strip() for cell in row)]


def _oracle_int(text: str, where: str) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise ScenarioError("parse error", f"{where}: expected integer, got {text!r}") from None


def _oracle_float(text: str, where: str) -> float:
    try:
        return float(text.strip())
    except ValueError:
        raise ScenarioError("parse error", f"{where}: expected number, got {text!r}") from None


def oracle_load(versions_path: Path, datasets_path: Path, runtimes_path: Path) -> Scenario:
    vrows = _oracle_rows(versions_path)
    if not vrows or [c.strip() for c in vrows[0]] != ["id", "name", "code_size", "is_baseline"]:
        raise ScenarioError("parse error", f"{versions_path}: expected header id,name,code_size,is_baseline")
    versions = []
    for lineno, row in enumerate(vrows[1:], start=2):
        where = f"{versions_path}:{lineno}"
        if len(row) != 4:
            raise ScenarioError("parse error", f"{where}: expected 4 fields, got {len(row)}")
        flag = row[3].strip()
        if flag not in ("0", "1"):
            raise ScenarioError("parse error", f"{where}: is_baseline must be 0 or 1, got {flag!r}")
        versions.append(
            Version(_oracle_int(row[0], where), row[1].strip(), _oracle_int(row[2], where), flag == "1")
        )
    drows = _oracle_rows(datasets_path)
    if not drows or not drows[0] or drows[0][0].strip() != "id":
        raise ScenarioError("parse error", f"{datasets_path}: expected header id,f0,f1,...")
    feat_names = [c.strip() for c in drows[0][1:]]
    if feat_names != [f"f{i}" for i in range(len(feat_names))] or not feat_names:
        raise ScenarioError("parse error", f"{datasets_path}: expected feature columns f0,f1,...")
    datasets = []
    for lineno, row in enumerate(drows[1:], start=2):
        where = f"{datasets_path}:{lineno}"
        if len(row) != 1 + len(feat_names):
            raise ScenarioError("parse error", f"{where}: expected {1 + len(feat_names)} fields, got {len(row)}")
        datasets.append(
            DatasetRecord(_oracle_int(row[0], where), tuple(_oracle_float(c, where) for c in row[1:]))
        )
    rrows = _oracle_rows(runtimes_path)
    if not rrows or [c.strip() for c in rrows[0]] != ["dataset_id", "version_id", "runtime_seconds"]:
        raise ScenarioError(
            "parse error", f"{runtimes_path}: expected header dataset_id,version_id,runtime_seconds"
        )
    cells: dict[tuple[int, int], float] = {}
    for lineno, row in enumerate(rrows[1:], start=2):
        where = f"{runtimes_path}:{lineno}"
        if len(row) != 3:
            raise ScenarioError("parse error", f"{where}: expected 3 fields, got {len(row)}")
        key = (_oracle_int(row[0], where), _oracle_int(row[1], where))
        if key in cells:
            raise ScenarioError(
                "duplicate cell", f"{where}: runtime for (dataset {key[0]}, version {key[1]}) appears twice"
            )
        cells[key] = _oracle_float(row[2], where)
    return oracle_assemble(versions, datasets, cells)


def oracle_assemble(versions, datasets, cells) -> Scenario:
    version_ids = {v.id for v in versions}
    dataset_ids = {d.id for d in datasets}
    for did, vid in cells:
        if did not in dataset_ids:
            raise ScenarioError("unknown id", f"runtimes reference unknown dataset id {did}")
        if vid not in version_ids:
            raise ScenarioError("unknown id", f"runtimes reference unknown version id {vid}")
    matrix = np.full((len(datasets), len(versions)), np.nan)
    for i, d in enumerate(datasets):
        for j, v in enumerate(versions):
            if (d.id, v.id) in cells:
                matrix[i, j] = cells[(d.id, v.id)]
    scenario = Scenario(tuple(versions), tuple(datasets), matrix)
    violations = oracle_validate(scenario)
    if violations:
        raise ScenarioError(violations[0].category, violations[0].message)
    return scenario


def oracle_best_version(matrix: SpeedupMatrix, dataset_index: int, candidates, code_sizes) -> int:
    col = {v: float(matrix.entries[matrix._version_index[v], dataset_index]) for v in candidates}
    return min(candidates, key=lambda v: (-col[v], code_sizes.get(v, 0), v))


# --- seeded tables -------------------------------------------------------------------


def random_tables(rng: random.Random) -> dict[str, list[list[str]]]:
    """Valid scenario tables as rows of cells, header first, in a shuffled order."""
    n_versions, n_datasets, arity = rng.randint(2, 5), rng.randint(1, 8), rng.randint(1, 3)
    version_ids = rng.sample(range(0, 60), n_versions)
    dataset_ids = rng.sample(range(0, 90), n_datasets)
    base = rng.choice(version_ids)

    def pad(text: str) -> str:
        return rng.choice(("", " ", "\t")) + text + rng.choice(("", " "))

    versions = [["id", "name", "code_size", "is_baseline"]] + [
        [pad(str(v)), f"v{v}", pad(str(rng.randint(1, 5000))), pad("1" if v == base else "0")]
        for v in version_ids
    ]
    def feature() -> str:
        return pad(repr(rng.choice((float(rng.randint(-9, 9)), rng.uniform(-1e3, 1e3)))))

    datasets = [["id"] + [f"f{j}" for j in range(arity)]] + [
        [pad(str(d))] + [feature() for _ in range(arity)] for d in dataset_ids
    ]
    cells = [[pad(str(d)), pad(str(v)), pad(repr(rng.uniform(1e-6, 10.0)))] for d in dataset_ids for v in version_ids]
    rng.shuffle(cells)
    runtimes = [["dataset_id", "version_id", "runtime_seconds"]] + cells
    return {"versions": versions, "datasets": datasets, "runtimes": runtimes}


def write_tables(tables: dict[str, list[list[str]]], root: Path) -> tuple[Path, Path, Path]:
    paths = tuple(root / f"{name}.csv" for name in ("versions", "datasets", "runtimes"))
    for path, name in zip(paths, ("versions", "datasets", "runtimes")):
        path.write_text("".join(",".join(row) + "\n" for row in tables[name]), encoding="utf-8")
    return paths


def outcome(load, paths):
    try:
        return load(*paths)
    except ScenarioError as exc:
        return (exc.category, str(exc))


def assert_same_scenario(a: Scenario, b: Scenario) -> None:
    assert a.versions == b.versions
    assert a.datasets == b.datasets
    assert a.runtimes.shape == b.runtimes.shape
    assert a.runtimes.tobytes() == b.runtimes.tobytes()


# --- mutations: each breaks one seeded table in one way ------------------------------------


def _body_row(rng, tables, name):
    return rng.choice(tables[name][1:])


def _set_cell(name, column, *values):
    """A mutation setting ``column`` of a random ``name`` row to one of ``values``."""

    def mutate(rng, tables):
        _body_row(rng, tables, name)[column] = rng.choice(values)

    return mutate


def _any_table(rng):
    return rng.choice(("versions", "datasets", "runtimes"))


def _bad_flag_and_id(rng, tables):
    row = _body_row(rng, tables, "versions")
    row[0], row[3] = "x", "2"


def _feature(*values):
    def mutate(rng, tables):
        row = _body_row(rng, tables, "datasets")
        row[rng.randint(1, len(row) - 1)] = rng.choice(values)

    return mutate


def _set_flags(value, rows):
    def mutate(rng, tables):
        for row in tables["versions"][rows]:
            row[3] = value

    return mutate


def _duplicate_cell(rng, tables):
    runtimes = tables["runtimes"]
    runtimes.insert(rng.randint(2, len(runtimes)), list(_body_row(rng, tables, "runtimes")))


def _duplicate_id(name):
    def mutate(rng, tables):
        _body_row(rng, tables, name)[0] = tables[name][1][0]

    return mutate


MUTATIONS = {
    "bad version id": _set_cell("versions", 0, "x", "1.5", "", " 7a"),
    "bad code size": _set_cell("versions", 2, "big", "2e3", ""),
    "bad flag": _set_cell("versions", 3, "2", "yes", "", "01"),
    "bad flag and id in one row": _bad_flag_and_id,
    "bad dataset id": _set_cell("datasets", 0, "d1", "3.0", ""),
    "bad feature": _feature("abc", "1.2.3", ""),
    "bad runtime dataset id": _set_cell("runtimes", 0, "q", "4.5", ""),
    "bad runtime version id": _set_cell("runtimes", 1, "q", "4.5", ""),
    "bad runtime": _set_cell("runtimes", 2, "fast", "1e", "", "0x1"),
    "short row": lambda rng, t: _body_row(rng, t, _any_table(rng)).pop(),
    "long row": lambda rng, t: _body_row(rng, t, _any_table(rng)).append("9"),
    "duplicate cell": _duplicate_cell,
    "duplicate cell with a bad runtime": lambda rng, t: t["runtimes"].append(
        _body_row(rng, t, "runtimes")[:2] + ["x"]
    ),
    "repeated unknown cell": lambda rng, t: t["runtimes"].extend([["500", "1", "2.0"], ["500", "1", "3.0"]]),
    "unknown dataset": _set_cell("runtimes", 0, "100", "150", "-4"),
    "unknown version": _set_cell("runtimes", 1, "100", "150", "-4"),
    "missing cell": lambda rng, t: t["runtimes"].pop(rng.randint(1, len(t["runtimes"]) - 1)),
    "bad measurement": _set_cell("runtimes", 2, "nan", "inf", "-inf", "0", "0.0", "-1.5"),
    "duplicate version id": _duplicate_id("versions"),
    "duplicate dataset id": _duplicate_id("datasets"),
    "negative version id": _set_cell("versions", 0, "-1", "-5"),
    "negative dataset id": _set_cell("datasets", 0, "-1", "-5"),
    "negative code size": _set_cell("versions", 2, "0", "-3"),
    "non-finite feature": _feature("nan", "inf", "-inf"),
    "no baseline": _set_flags("0", slice(1, None)),
    "two baselines": _set_flags("1", slice(1, 3)),
}
SEEDS_PER_MUTATION = 10


def mutated(kind: str, seed: int) -> dict[str, list[list[str]]]:
    """Seeded tables broken by ``kind``; even seeds add a second, random fault."""
    rng = random.Random(f"{kind}/{seed}")
    tables = random_tables(rng)
    MUTATIONS[kind](rng, tables)
    if seed % 2 == 0:
        MUTATIONS[rng.choice(sorted(MUTATIONS))](rng, tables)
    return tables


def row_path_load(*paths) -> Scenario:
    """``load_scenario`` with the bulk pass refusing every table."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scenario_module, "_bulk", lambda path, header: None)
        return load_scenario(*paths)


# The loader as the pipeline runs it, and its row path alone, which reads every table the bulk pass accepts too.
LOADERS = pytest.mark.parametrize("load", [load_scenario, row_path_load], ids=["load_scenario", "row_path"])


class TestLoadAgainstOracle:
    @LOADERS
    @pytest.mark.parametrize("seed", range(40))
    def test_valid_tables_load_to_the_same_scenario(self, load, seed, tmp_path):
        paths = write_tables(random_tables(random.Random(seed)), tmp_path)
        assert_same_scenario(load(*paths), oracle_load(*paths))

    @LOADERS
    @pytest.mark.parametrize("seed", range(SEEDS_PER_MUTATION))
    @pytest.mark.parametrize("kind", sorted(MUTATIONS))
    def test_broken_tables_raise_the_same_error(self, load, kind, seed, tmp_path):
        paths = write_tables(mutated(kind, seed), tmp_path)
        got, want = outcome(load, paths), outcome(oracle_load, paths)
        if isinstance(want, Scenario):
            assert_same_scenario(got, want)
        else:
            assert got == want

    @LOADERS
    def test_ids_beyond_64_bits(self, load, tmp_path):
        tables = random_tables(random.Random(5))
        for name, column in (("versions", 0), ("datasets", 0), ("runtimes", 0), ("runtimes", 1)):
            for row in tables[name][1:]:
                row[column] = str(int(row[column]) + 2**70)
        paths = write_tables(tables, tmp_path)
        scenario = load(*paths)
        assert min(scenario.dataset_ids + scenario.version_ids) > 2**70
        assert_same_scenario(scenario, oracle_load(*paths))

    def test_most_mutations_are_rejected(self, tmp_path):
        rejected = 0
        for kind in MUTATIONS:
            for seed in range(SEEDS_PER_MUTATION):
                paths = write_tables(mutated(kind, seed), tmp_path)
                rejected += not isinstance(outcome(oracle_load, paths), Scenario)
        assert rejected >= 200


class TestPhysicalLines:
    def test_blank_lines_before_the_fault_are_counted(self, tmp_path):
        tables = random_tables(random.Random(3))
        paths = write_tables(tables, tmp_path)
        lines = paths[2].read_text().splitlines()
        lines[3] = "zz," + lines[3].split(",", 1)[1]
        paths[2].write_text("\n".join(lines[:1] + ["", " , "] + lines[1:]) + "\n")
        with pytest.raises(ScenarioError) as exc:
            load_scenario(*paths)
        assert exc.value.category == "parse error"
        assert f"{paths[2]}:6: expected integer, got 'zz'" in str(exc.value)

    def test_duplicate_cell_after_blank_lines(self, tmp_path):
        paths = write_tables(random_tables(random.Random(4)), tmp_path)
        lines = paths[2].read_text().splitlines()
        paths[2].write_text("\n".join(lines[:2] + ["", "", lines[1]] + lines[2:]) + "\n")
        with pytest.raises(ScenarioError) as exc:
            load_scenario(*paths)
        assert exc.value.category == "duplicate cell"
        assert f"{paths[2]}:5: runtime for" in str(exc.value)


# --- validation of hand-built scenarios --------------------------------------------------


def broken_scenario(rng: random.Random) -> Scenario:
    """A scenario with faults sprinkled into every table."""
    n_versions, n_datasets = rng.randint(0, 5), rng.randint(0, 7)
    versions = tuple(
        Version(rng.choice((rng.randint(0, 4), -1)), "v", rng.choice((rng.randint(1, 9), 0, -2)), rng.random() < 0.3)
        for _ in range(n_versions)
    )
    arity = rng.randint(0, 3)
    special = (math.nan, math.inf, -math.inf)
    datasets = tuple(
        DatasetRecord(
            rng.choice((rng.randint(0, 6), -3)),
            tuple(
                rng.choice(special) if rng.random() < 0.15 else rng.uniform(-5, 5)
                for _ in range(arity if rng.random() < 0.8 else rng.randint(0, 4))
            ),
        )
        for _ in range(n_datasets)
    )
    runtimes = np.array(
        [
            [rng.choice((math.nan, math.inf, -math.inf, 0.0, -1.0, -0.0)) if rng.random() < 0.2 else rng.uniform(0.1, 3)
             for _ in versions]
            for _ in datasets
        ],
        dtype=float,
    ).reshape(n_datasets, n_versions)
    return Scenario(versions, datasets, runtimes)


class TestValidateAgainstOracle:
    @pytest.mark.parametrize("seed", range(60))
    def test_same_violation_list(self, seed):
        scenario = broken_scenario(random.Random(seed))
        assert validate_scenario(scenario) == oracle_validate(scenario)

    def test_broken_scenarios_do_break(self):
        assert sum(bool(oracle_validate(broken_scenario(random.Random(s)))) for s in range(60)) >= 55


# --- best_versions ----------------------------------------------------------------------


class TestBestVersions:
    @pytest.mark.parametrize("seed", range(30))
    def test_same_picks_as_the_scalar_argmax(self, seed):
        rng = random.Random(seed)
        n_versions, n_datasets = rng.randint(2, 6), rng.randint(1, 12)
        version_ids = tuple(rng.sample(range(20), n_versions))
        # Few distinct speedups and sizes, so ties in both are common.
        entries = np.array([[rng.choice((0.5, 1.0, 2.0)) for _ in range(n_datasets)] for _ in version_ids])
        entries[0] = 1.0
        matrix = SpeedupMatrix(version_ids[0], version_ids, tuple(range(n_datasets)), entries)
        sizes = {v: rng.choice((10, 20)) for v in version_ids if rng.random() < 0.9}
        candidates = tuple(rng.sample(version_ids, rng.randint(1, n_versions)))
        picks = best_versions(matrix, candidates, sizes)
        for i in range(n_datasets):
            assert picks[i] == oracle_best_version(matrix, i, candidates, sizes)


# --- the bulk pass against the row path -------------------------------------------------


def result(load, paths):
    """A scenario, or what its load raised: (category, message) or (type, message)."""
    try:
        return load(*paths)
    except ScenarioError as exc:
        return (exc.category, str(exc))
    except (ValueError, csv.Error) as exc:  # invalid UTF-8, or a field past the csv limit
        return (type(exc).__name__, str(exc))


def assert_same_result(paths) -> None:
    got, want = result(load_scenario, paths), result(row_path_load, paths)
    if isinstance(want, Scenario):
        assert isinstance(got, Scenario), got
        assert_same_scenario(got, want)
    else:
        assert got == want


def refuse_row_path(monkeypatch) -> None:
    """Make every ``_rows`` call but those for ``versions.csv`` fail the test."""
    rows = scenario_module._rows

    def versions_only(path):
        assert Path(path).name == "versions.csv", f"{path} took the row path"
        return rows(path)

    monkeypatch.setattr(scenario_module, "_rows", versions_only)


def _cell(name, row, column, text):
    """An edge case setting one cell of a seeded table to ``text``; ``{}`` is the old value."""

    def edit(data: bytes) -> bytes:
        lines = data.split(b"\n")
        cells = lines[row].split(b",")
        cells[column] = text.replace(b"{}", cells[column].strip())
        lines[row] = b",".join(cells)
        return b"\n".join(lines)

    return name, edit


def _header(name, text):
    """An edge case replacing the first line of a seeded table with ``text``."""
    return name, lambda data: text + data[data.index(b"\n"):]


def _unknown_version_then_dataset(data: bytes) -> bytes:
    lines = data.split(b"\n")
    dataset, version, _ = lines[1].split(b",")
    lines[1], lines[2] = dataset + b",9999,1.0", b"9999," + version + b",1.0"
    return b"\n".join(lines)


# (table, edit of its bytes): each case of the bulk pass's contract.
EDGE_CASES = {
    "non-canonical runtimes header": _header("runtimes", b" dataset_id , version_id,runtime_seconds"),
    "quoted runtimes header": _header("runtimes", b'"dataset_id",version_id,runtime_seconds'),
    "wrong runtimes header": _header("runtimes", b"dataset,version,runtime"),
    "non-canonical datasets header": ("datasets", lambda d: d.replace(b"id,", b"id ,\t", 1)),
    "wrong datasets header": ("datasets", lambda d: d.replace(b"f0", b"g0", 1)),
    "datasets header without features": _header("datasets", b"id"),
    "underscore in an id": _cell("runtimes", 1, 1, b"0_{}"),
    "underscore in a runtime": _cell("runtimes", 2, 2, b"1_0"),
    "underscore in a feature": _cell("datasets", 1, 1, b"1_5"),
    "quoted runtime": _cell("runtimes", 1, 2, b'"{}"'),
    "quoted id": _cell("datasets", 1, 0, b'"{}"'),
    "id of 2**63": _cell("runtimes", 1, 0, b"9223372036854775808"),
    "id of -2**63 - 1": _cell("runtimes", 1, 1, b"-9223372036854775809"),
    "1.0 as an id": _cell("runtimes", 1, 0, b"{}.0"),
    "1e0 as an id": _cell("datasets", 1, 0, b"1e0"),
    "whitespace-only row": ("runtimes", lambda d: d.replace(b"\n", b"\n \t \n", 1)),
    "comma-only row": ("runtimes", lambda d: d.replace(b"\n", b"\n,,\n", 1)),
    "empty runtimes body": ("runtimes", lambda d: d[:d.index(b"\n") + 1]),
    "empty datasets body": ("datasets", lambda d: d[:d.index(b"\n") + 1]),
    "comment line": ("runtimes", lambda d: d.replace(b"\n", b"\n# note\n", 1)),
    "hash in a cell": _cell("runtimes", 1, 2, b"1.5#"),
    "CRLF line ends": ("runtimes", lambda d: d.replace(b"\n", b"\r\n")),
    "CR line ends": ("datasets", lambda d: d.replace(b"\n", b"\r")),
    "CRLF after the header only": ("runtimes", lambda d: d.replace(b"\n", b"\r\n", 1)),
    "plus sign": _cell("runtimes", 1, 0, b"+{}"),
    "padded id": _cell("runtimes", 1, 1, b" {} "),
    "non-ASCII padding": _cell("runtimes", 1, 2, "\u3000 2.5\xa0".encode()),
    "non-ASCII digit": _cell("runtimes", 1, 2, "\u0661".encode()),
    "inf runtime": _cell("runtimes", 1, 2, b"inf"),
    "-Infinity runtime": _cell("runtimes", 1, 2, b"-Infinity"),
    "nan runtime": _cell("runtimes", 1, 2, b"nan"),
    "-0.0 runtime": _cell("runtimes", 1, 2, b"-0.0"),
    "inf feature": _cell("datasets", 1, 1, b"inf"),
    "-0.0 feature": _cell("datasets", 1, 1, b"-0.0"),
    "1e-400 runtime": _cell("runtimes", 1, 2, b"1e-400"),
    "1e500 runtime": _cell("runtimes", 1, 2, b"1e500"),
    "subnormal runtime": _cell("runtimes", 1, 2, b"5e-324"),
    "hex runtime": _cell("runtimes", 1, 2, b"0x1p0"),
    "trailing comma": _cell("runtimes", 1, 2, b"1.5,"),
    "trailing comma on every row": ("datasets", lambda d: d.replace(b"\n", b",\n")),
    "NUL in a cell": _cell("runtimes", 1, 2, b"1.5\x00"),
    "NUL line": ("runtimes", lambda d: d + b"\x00\n"),
    "invalid UTF-8 in a cell": _cell("datasets", 1, 1, b"1.5\xff"),
    "invalid UTF-8 in the header": ("runtimes", lambda d: b"\xc3" + d),
    "byte order mark": ("runtimes", lambda d: b"\xef\xbb\xbf" + d),
    "blank lines before the header": ("runtimes", lambda d: b"\n \n" + d),
    "blank lines between rows": ("datasets", lambda d: d.replace(b"\n", b"\n\n\r\n")),
    "no final line end": ("runtimes", lambda d: d.rstrip(b"\n")),
    "zero-padded id": _cell("runtimes", 1, 0, b"0" * 600 + b"{}"),
    "long zero-padded id": _cell("runtimes", 1, 0, b"0" * 5000 + b"{}"),
    "long zero-padded runtime": _cell("runtimes", 1, 2, b"0" * 700 + b"1.5"),
    "cell past the csv field limit": _cell("runtimes", 1, 2, b" " * 140_000 + b"1.5"),
    "short row": ("runtimes", lambda d: d + b"1,2\n"),
    "duplicate cell": ("runtimes", lambda d: d + d.split(b"\n")[1] + b"\n"),
    # Ids the bulk pass maps by sorted search instead of a dict, and the order of their errors.
    "repeated dataset id": ("datasets", lambda d: d + d.split(b"\n")[1] + b"\n"),
    "version id of 2**63": _cell("versions", 1, 0, b"9223372036854775808"),
    "version id of -2**63": _cell("versions", 1, 0, b"-9223372036854775808"),
    "unknown id of -2**63": _cell("runtimes", 1, 1, b"-9223372036854775808"),
    "unknown ids, then a repeated cell": ("runtimes", lambda d: d + b"9999,0,1.0\n" + d.split(b"\n")[1] + b"\n"),
    "repeated cell of unknown ids": ("runtimes", lambda d: d + b"9999,9999,1.0\n9999,9999,2.0\n"),
    "unknown version, then an unknown dataset": ("runtimes", _unknown_version_then_dataset),
}


class TestBulkAgainstRowPath:
    @pytest.mark.parametrize("seed", range(40))
    def test_seeded_tables_load_the_same_without_the_row_path(self, seed, tmp_path, monkeypatch):
        paths = write_tables(random_tables(random.Random(seed)), tmp_path)
        want = row_path_load(*paths)
        refuse_row_path(monkeypatch)
        assert_same_scenario(load_scenario(*paths), want)

    @pytest.mark.parametrize("kind", sorted(EDGE_CASES))
    def test_edge_case_gives_the_same_result(self, kind, tmp_path):
        name, edit = EDGE_CASES[kind]
        paths = write_tables(random_tables(random.Random(kind)), tmp_path)
        path = tmp_path / f"{name}.csv"
        path.write_bytes(edit(path.read_bytes()))
        assert_same_result(paths)

    @pytest.mark.parametrize("base", [2**63, 2**70], ids=["2**63", "2**70"])
    def test_ids_past_int64_load_through_the_row_path(self, base, tmp_path):
        tables = random_tables(random.Random(base))
        for name, column in (("versions", 0), ("datasets", 0), ("runtimes", 0), ("runtimes", 1)):
            for row in tables[name][1:]:
                row[column] = str(int(row[column]) + base)
        paths = write_tables(tables, tmp_path)
        assert_same_result(paths)
        assert min(load_scenario(*paths).dataset_ids) >= base

    @pytest.mark.parametrize("kind", sorted(MUTATIONS))
    def test_broken_tables_raise_the_same_error(self, kind, tmp_path):
        for seed in range(SEEDS_PER_MUTATION):
            assert_same_result(write_tables(mutated(kind, seed), tmp_path))

    @pytest.mark.parametrize(
        "name, column, text",
        [("runtimes", 0, b"{}%c"), ("runtimes", 1, b"%c{}"), ("runtimes", 2, b"%c{}"), ("runtimes", 2, b"{}%c"),
         ("runtimes", 2, b"1%c5"), ("datasets", 1, b"%c{}%c")],
    )
    def test_every_ascii_byte_in_a_cell_gives_the_same_result(self, name, column, text, tmp_path):
        paths = write_tables(random_tables(random.Random(text)), tmp_path)
        path = tmp_path / f"{name}.csv"
        original = path.read_bytes()
        for byte in range(128):
            path.write_bytes(_cell(name, 1, column, text.replace(b"%c", bytes([byte])))[1](original))
            assert_same_result(paths)

    @pytest.mark.parametrize(
        "ids, keys",
        [
            ([], [0, -1]),
            ([3, 1, 3, 2**63, 1], [3, 1, 2, 0, -(2**63), 2**63 - 1]),
            ([2**63 - 1, -(2**63), 5], [5, -(2**63), 2**63 - 1, 4]),
            ([2**70, -(2**64), 7, 7, 7], [7, 0, -1]),
            (list(range(50, 0, -1)) * 2, list(range(-5, 60))),
        ],
        ids=["no ids", "repeats and 2**63", "int64 extremes", "ids past int64", "every id twice"],
    )
    def test_positions_of_an_int64_array_match_the_dict(self, ids, keys):
        want = scenario_module._positions(ids, keys)
        got = scenario_module._positions(ids, np.array(keys, dtype=np.int64))
        assert got.tolist() == want.tolist()

    def test_the_cell_end_rule_holds_across_read_chunks(self, tmp_path):
        # The checks read the file in chunks, yet take the same tables as the rule on the whole
        # file: every aligned 320-byte block holds a comma or line end. A 333-byte cell starting
        # near the end of the first chunk fills the block after it only from some offsets.
        def whole_file_rule(data: bytes) -> bool:
            ends = np.frombuffer(data.translate(scenario_module._CELL_ENDS), np.bool_)
            return bool(ends[: len(ends) // 320 * 320].reshape(-1, 320).any(axis=1).all())

        path, header = tmp_path / "runtimes.csv", b"dataset_id,version_id,runtime_seconds\n"
        taken = set()
        for start in range((320 << 10) - 16, (320 << 10) + 8):  # where the long cell starts
            rows, pad = divmod(start - len(b"1,2,") - len(header), len(b"1,2,3.0\n"))
            data = header + b"1,2," + b"0" * pad + b"3.0\n" + b"1,2,3.0\n" * (rows - 1)
            data += b"1,2," + b"0" * 330 + b"1.5\n" + b"1,2,3.0\n" * 200
            path.write_bytes(data)
            columns = scenario_module._bulk(path, lambda width: ["dataset_id", "version_id", "runtime_seconds"])
            assert (columns is not None) == whole_file_rule(data), start
            taken.add(columns is not None)
        assert taken == {True, False}

    def test_a_field_past_the_csv_limit_is_a_parse_error_at_its_line(self, tmp_path):
        path = tmp_path / "runtimes.csv"
        path.write_text("dataset_id,version_id,runtime_seconds\n1,2,3.0\n\n1,3," + " " * 140_000 + "4.0\n")
        with pytest.raises(ScenarioError) as exc:
            scenario_module._runtime_columns(path)
        assert str(exc.value) == f"parse error: {path}:4: field larger than field limit (131072)"

    def test_a_repeated_cell_the_second_read_does_not_find_is_named_as_a_change(self, tmp_path, monkeypatch):
        paths = write_tables(random_tables(random.Random(6)), tmp_path)
        runtimes = paths[2].read_text()
        paths[2].write_text(runtimes + runtimes.split("\n")[1] + "\n")
        monkeypatch.setattr(scenario_module, "_runtime_columns", lambda path: None)  # as if the repeat were gone
        message = f"parse error: {paths[2]}: the table changed while it was read"
        assert outcome(load_scenario, paths) == ("parse error", message)

    def test_a_table_with_a_byte_outside_ascii_never_reaches_loadtxt(self, tmp_path, monkeypatch):
        # In numpy 2.4 a failed loadtxt call on this id corrupts the next call.
        path = tmp_path / "runtimes.csv"
        path.write_text("dataset_id,version_id,runtime_seconds\n\U0002c6ca1\U0002c6ca,2,3.0\n", encoding="utf-8")
        monkeypatch.setattr(np, "loadtxt", lambda *args, **kwargs: pytest.fail("loadtxt was called"))
        assert scenario_module._bulk(path, lambda width: ["dataset_id", "version_id", "runtime_seconds"]) is None

    def test_a_table_loadtxt_warns_about_takes_the_row_path_under_any_filter(self, tmp_path):
        path = tmp_path / "runtimes.csv"
        path.write_text("dataset_id,version_id,runtime_seconds\n")  # loadtxt: "input contained no data"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert scenario_module._bulk(path, lambda width: ["dataset_id", "version_id", "runtime_seconds"]) is None


@pytest.fixture(scope="module")
def fuzz_scenario(tmp_path_factory) -> Path:
    """The scenario of the fuzz gate's corpus, written by its own ``gen`` line."""
    root = tmp_path_factory.mktemp("fuzz-scenario")
    with pytest.MonkeyPatch.context() as mp, redirect_stdout(io.StringIO()):
        mp.chdir(root)
        assert main(list(FUZZ_SETUP[0])) == 0
    return root / "scen"


@pytest.mark.parametrize("pair", [pair for pair, (target, _) in enumerate(FUZZ_PAIRS) if target.endswith(".csv")])
def test_fuzz_csv_mutations_give_the_same_result(fuzz_scenario, tmp_path, pair):
    target = Path(FUZZ_PAIRS[pair][0]).relative_to("scen")
    original = (fuzz_scenario / target).read_bytes()
    names = ("versions.csv", "datasets.csv", "runtimes.csv")
    for name in names:
        shutil.copy(fuzz_scenario / target.parent / name, tmp_path / name)
    paths = tuple(tmp_path / name for name in names)
    for case in range(pair * CASES_PER_PAIR, (pair + 1) * CASES_PER_PAIR):
        (tmp_path / target.name).write_bytes(mutate(original, case_rng(case)))
        assert_same_result(paths)


@pytest.fixture(scope="module")
def wide_scenario(tmp_path_factory) -> Path:
    """A generated 41-version x 2000-dataset scenario (82,000 runtime rows) with a test split."""
    root = tmp_path_factory.mktemp("wide") / "scen"
    argv = ["gen", "--versions", "41", "--datasets", "2000", "--features", "4", "--regions", "16",
            "--feature-range", "1,32", "--seed", "3", "--test-seed", "4", "--test-datasets", "50",
            "--out-dir", str(root)]
    with redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    return root


def test_generated_wide_tables_load_without_the_row_path(wide_scenario, monkeypatch):
    for scen in (wide_scenario, wide_scenario / "test"):
        paths = tuple(scen / name for name in ("versions.csv", "datasets.csv", "runtimes.csv"))
        want = row_path_load(*paths)
        with monkeypatch.context() as mp:
            refuse_row_path(mp)
            assert_same_scenario(load_scenario(*paths), want)


def test_load_allocates_at_most_three_times_the_runtimes_table(wide_scenario):
    # Memory, not time: the bulk columns stay arrays, so the traced peak is a few int64/float64
    # arrays of the runtime rows, where one Python object per cell took about six times the file.
    paths = tuple(wide_scenario / name for name in ("versions.csv", "datasets.csv", "runtimes.csv"))
    load_scenario(*paths)  # first-call allocations of numpy and csv are not the load's
    tracemalloc.start()
    try:
        load_scenario(*paths)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * paths[2].stat().st_size


def _bad_cell_under_a_loose_header(text: str) -> str:
    lines = text.split("\n")
    lines[0], lines[3] = " dataset_id , version_id,runtime_seconds", lines[3].rpartition(",")[0] + ",abc"
    return "\n".join(lines)


# (edit of a gen-written runtimes.csv, the error it raises, row-path reads a load makes per table)
ROW_PASSES = {
    "canonical tables": (lambda text: text, None, {"versions.csv": 1}),
    "bad cell in a table the bulk pass refuses": (
        _bad_cell_under_a_loose_header, "parse error", {"versions.csv": 1, "runtimes.csv": 1},
    ),
    "repeated cell in a table the bulk pass reads": (
        lambda text: text + text.split("\n")[1] + "\n", "duplicate cell", {"versions.csv": 1, "runtimes.csv": 1},
    ),
}


@pytest.mark.parametrize("edit, category, expected_reads", ROW_PASSES.values(), ids=ROW_PASSES.keys())
def test_a_load_reads_each_row_path_table_once(fuzz_scenario, tmp_path, monkeypatch, edit, category, expected_reads):
    names = ("versions.csv", "datasets.csv", "runtimes.csv")
    for name in names:
        shutil.copy(fuzz_scenario / name, tmp_path / name)
    runtimes = tmp_path / "runtimes.csv"
    runtimes.write_text(edit(runtimes.read_text()))
    reads, read_bytes = Counter(), Path.read_bytes

    def counting_read(path):
        reads[path.name] += 1
        return read_bytes(path)

    monkeypatch.setattr(Path, "read_bytes", counting_read)
    got = outcome(load_scenario, [tmp_path / name for name in names])
    assert (got[0] == category) if category else isinstance(got, Scenario)
    assert reads == expected_reads
