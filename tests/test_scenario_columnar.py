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
"""

from __future__ import annotations

import csv
import math
import random
from pathlib import Path

import numpy as np
import pytest

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


class TestLoadAgainstOracle:
    @pytest.mark.parametrize("seed", range(40))
    def test_valid_tables_load_to_the_same_scenario(self, seed, tmp_path):
        paths = write_tables(random_tables(random.Random(seed)), tmp_path)
        assert_same_scenario(load_scenario(*paths), oracle_load(*paths))

    @pytest.mark.parametrize("seed", range(SEEDS_PER_MUTATION))
    @pytest.mark.parametrize("kind", sorted(MUTATIONS))
    def test_broken_tables_raise_the_same_error(self, kind, seed, tmp_path):
        paths = write_tables(mutated(kind, seed), tmp_path)
        got, want = outcome(load_scenario, paths), outcome(oracle_load, paths)
        if isinstance(want, Scenario):
            assert_same_scenario(got, want)
        else:
            assert got == want

    def test_ids_beyond_64_bits(self, tmp_path):
        tables = random_tables(random.Random(5))
        for name, column in (("versions", 0), ("datasets", 0), ("runtimes", 0), ("runtimes", 1)):
            for row in tables[name][1:]:
                row[column] = str(int(row[column]) + 2**70)
        paths = write_tables(tables, tmp_path)
        scenario = load_scenario(*paths)
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
