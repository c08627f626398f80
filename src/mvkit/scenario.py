"""Core data model: versions, datasets, runtime matrix, speedups.

A scenario couples a set of differently optimized code versions of one hot
function (exactly one of them flagged as the baseline) with a set of
datasets and a complete matrix of measured runtimes. Speedups are always
the baseline runtime divided by the version runtime, so the baseline row
is exactly 1.0 and values below 1.0 are slowdowns.

Scenarios are ingested from three CSV files (see ``load_scenario``). The
path is columnar: each table is read once, its columns are converted in
bulk, runtime rows land in the ``(dataset, version)`` matrix by one index
assignment, and validation runs masks over whole columns. Only a faulty
table is read again, row by row, to name the physical line of its first
fault. All types are immutable after construction and safe to share
across threads.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, compress, repeat
from operator import itemgetter
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import MvkitError


class ScenarioError(MvkitError):
    """Invariant violation or parse failure in scenario tables.

    ``category`` is a stable machine-checkable tag, e.g. "duplicate id",
    "incomplete matrix", "non-positive measurement", "baseline count".
    """


@dataclass(frozen=True)
class Version:
    """One optimization variant of the hot function."""

    id: int
    name: str
    code_size: int
    is_baseline: bool = False


@dataclass(frozen=True)
class DatasetRecord:
    """One dataset, characterized by a fixed-arity real feature vector."""

    id: int
    features: tuple[float, ...]


@dataclass(frozen=True)
class Violation:
    """One invariant violation found by :func:`validate_scenario`."""

    table: str  # versions | datasets | runtimes | scenario
    subject: tuple[int, ...]  # ids involved, possibly empty
    category: str
    message: str


@dataclass(frozen=True, eq=False)
class Scenario:
    """Versions, datasets, and the dense runtime matrix linking them.

    ``runtimes[i, j]`` is the runtime in seconds of ``versions[j]`` on
    ``datasets[i]``. Construction only enforces the matrix shape; use
    :func:`validate_scenario` to check content invariants (the loader does
    this and refuses invalid input).
    """

    versions: tuple[Version, ...]
    datasets: tuple[DatasetRecord, ...]
    runtimes: np.ndarray

    def __post_init__(self) -> None:
        mat = np.asarray(self.runtimes, dtype=float)
        if mat.shape != (len(self.datasets), len(self.versions)):
            raise ScenarioError(
                "matrix shape",
                f"runtimes shape {mat.shape} does not match "
                f"{len(self.datasets)} datasets x {len(self.versions)} versions",
            )
        mat = mat.copy()
        mat.setflags(write=False)
        object.__setattr__(self, "runtimes", mat)

    @cached_property
    def version_ids(self) -> tuple[int, ...]:
        return tuple(v.id for v in self.versions)

    @cached_property
    def dataset_ids(self) -> tuple[int, ...]:
        return tuple(d.id for d in self.datasets)

    @cached_property
    def _version_index(self) -> dict[int, int]:
        return {v.id: i for i, v in enumerate(self.versions)}

    @property
    def feature_arity(self) -> int:
        return len(self.datasets[0].features) if self.datasets else 0

    @property
    def baseline(self) -> Version | None:
        flagged = [v for v in self.versions if v.is_baseline]
        return flagged[0] if len(flagged) == 1 else None

    @property
    def baseline_binary_size(self) -> int:
        base = self.baseline
        if base is None:
            raise ScenarioError("baseline count", "scenario has no unique baseline")
        return base.code_size

    def code_sizes(self) -> dict[int, int]:
        return {v.id: v.code_size for v in self.versions}


@dataclass(frozen=True, eq=False)
class SpeedupMatrix:
    """Per-(version, dataset) speedups relative to the baseline version.

    ``entries[i, j]`` is ``t(baseline, dataset_j) / t(version_i, dataset_j)``;
    the baseline row is exactly 1.0. ``log_entries`` caches the natural log,
    which is what the selection objective operates on.
    """

    baseline_id: int
    version_ids: tuple[int, ...]
    dataset_ids: tuple[int, ...]
    entries: np.ndarray
    log_entries: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        mat = np.asarray(self.entries, dtype=float)
        if mat.shape != (len(self.version_ids), len(self.dataset_ids)):
            raise ScenarioError(
                "matrix shape",
                f"speedup shape {mat.shape} does not match "
                f"{len(self.version_ids)} versions x {len(self.dataset_ids)} datasets",
            )
        if self.baseline_id not in self.version_ids:
            raise ScenarioError("baseline count", f"baseline {self.baseline_id} not among versions")
        if not np.isfinite(mat).all() or (mat <= 0).any():
            raise ScenarioError("non-positive measurement", "speedups must be finite and > 0")
        base_row = mat[self.version_ids.index(self.baseline_id)]
        if not np.all(base_row == 1.0):
            raise ScenarioError("baseline row", "baseline speedups must equal 1.0 exactly")
        mat = mat.copy()
        mat.setflags(write=False)
        logs = np.log(mat)
        logs.setflags(write=False)
        object.__setattr__(self, "entries", mat)
        object.__setattr__(self, "log_entries", logs)

    @cached_property
    def _version_index(self) -> dict[int, int]:
        return {vid: i for i, vid in enumerate(self.version_ids)}

    @cached_property
    def _dataset_index(self) -> dict[int, int]:
        # Reversed, so that the first of two equal ids keeps its column.
        n = len(self.dataset_ids)
        return dict(zip(reversed(self.dataset_ids), range(n - 1, -1, -1)))

    @cached_property
    def candidate_ids(self) -> tuple[int, ...]:
        return tuple(v for v in self.version_ids if v != self.baseline_id)

    @property
    def n_datasets(self) -> int:
        return len(self.dataset_ids)

    def speedup(self, version_id: int, dataset_id: int) -> float:
        return float(self.entries[self._version_index[version_id], self._dataset_index[dataset_id]])

    def log_row(self, version_id: int) -> np.ndarray:
        return self.log_entries[self._version_index[version_id]]

    def row(self, version_id: int) -> np.ndarray:
        return self.entries[self._version_index[version_id]]


def speedups(scenario: Scenario) -> SpeedupMatrix:
    """Build the speedup matrix of a valid scenario.

    ``s(v, d) = t(baseline, d) / t(v, d)``. The baseline row is exactly 1.0
    because IEEE division of a finite positive number by itself is exact.
    """
    base = scenario.baseline
    if base is None:
        raise ScenarioError("baseline count", "scenario has no unique baseline")
    runtimes = scenario.runtimes  # (D, V)
    base_col = runtimes[:, scenario._version_index[base.id]]
    with np.errstate(divide="ignore", invalid="ignore"):
        # A zero runtime yields a non-finite entry here; the matrix
        # constructor turns that into a ScenarioError.
        entries = (base_col[:, None] / runtimes).T  # (V, D)
    return SpeedupMatrix(
        baseline_id=base.id,
        version_ids=scenario.version_ids,
        dataset_ids=scenario.dataset_ids,
        entries=entries,
    )


def validate_scenario(scenario: Scenario) -> list[Violation]:
    """Enumerate every invariant violation; an empty list means valid.

    Violations are data, not failures: the report is stably ordered by
    table (versions, datasets, runtimes, scenario) and then by id, so two
    runs over the same scenario produce identical reports. Each table's
    checks are columns of one fault mask, and ``np.argwhere`` walks a mask
    in row-major order, which is the report's order.
    """
    versions, datasets, runtimes = scenario.versions, scenario.datasets, scenario.runtimes
    violations: list[Violation] = []
    baseline_ids = sorted(v.id for v in versions if v.is_baseline)
    if len(baseline_ids) != 1:
        message = f"expected exactly 1 baseline, found {len(baseline_ids)}"
        violations.append(Violation("versions", tuple(baseline_ids), "baseline count", message))

    # Feature vectors padded with zeros into one matrix, so ragged ones are checked too.
    lengths = np.array([len(d.features) for d in datasets], dtype=np.intp)
    arity = int(lengths[0]) if datasets else 0
    present = np.arange(lengths.max(initial=0)) < lengths[:, None]
    values = np.zeros(present.shape)
    values[present] = list(chain.from_iterable(d.features for d in datasets))

    def version_fault(v: Version, k: int) -> tuple[tuple[int, ...], str, str]:
        if k < 2:
            return _id_fault("version", v.id, k)
        return (v.id,), "non-positive measurement", f"version {v.id} has code_size {v.code_size} < 1"

    def dataset_fault(d: DatasetRecord, k: int) -> tuple[tuple[int, ...], str, str]:
        if k < 2:
            return _id_fault("dataset", d.id, k)
        if k == 2:
            message = f"dataset {d.id} has arity {len(d.features)}, expected {max(arity, 1)}"
            return (d.id,), "feature arity", message
        return (d.id, k - 3), "non-finite feature", f"dataset {d.id} feature f{k - 3} is {d.features[k - 3]}"

    # Columns: negative id, repeated id, then the table's own checks.
    for table, records, checks, fault in (
        ("versions", versions, [[v.code_size < 1 for v in versions]], version_fault),
        ("datasets", datasets, [(lengths != arity) | (arity < 1), ~np.isfinite(values)], dataset_fault),
    ):
        ids = [r.id for r in records]
        mask = np.column_stack([[i < 0 for i in ids], _repeats(ids), *checks])
        violations.extend(Violation(table, *fault(records[i], k)) for i, k in np.argwhere(mask).tolist())

    for i, j in np.argwhere(~(np.isfinite(runtimes) & (runtimes > 0))).tolist():
        d, v, t = datasets[i].id, versions[j].id, runtimes[i, j]
        cell = f"runtime for (dataset {d}, version {v})"
        if math.isnan(t):
            violations.append(Violation("runtimes", (d, v), "incomplete matrix", f"{cell} is missing"))
        else:
            violations.append(Violation("runtimes", (d, v), "non-positive measurement", f"{cell} is {t}"))

    if len(versions) < 2 or len(datasets) < 1:
        message = f"need at least 2 versions and 1 dataset, found {len(versions)} and {len(datasets)}"
        violations.append(Violation("scenario", (), "scenario size", message))
    return violations


def _id_fault(noun: str, id_: int, k: int) -> tuple[tuple[int, ...], str, str]:
    if k == 0:
        return (id_,), "invalid id", f"{noun} id {id_} is negative"
    return (id_,), "duplicate id", f"{noun} id {id_} appears twice"


def _repeats(keys: list) -> np.ndarray:
    """Mask of the entries of ``keys`` equal to an earlier one; ids of any size compare exactly."""
    first = np.fromiter(map({}.setdefault, keys, range(len(keys))), dtype=np.intp, count=len(keys))
    return first != np.arange(len(keys))


# --- CSV ingestion -----------------------------------------------------------

_VERSIONS_HEADER = ["id", "name", "code_size", "is_baseline"]
_RUNTIMES_HEADER = ["dataset_id", "version_id", "runtime_seconds"]
_EXPECTED = {int: "integer", float: "number"}

Row = Sequence[str]
Spec = Sequence[tuple[int, Callable[[str], object]]]  # (column, converter), in check order
Fault = tuple[str, str]  # (category, message) of one rejected row
RowCheck = Callable[[Row], Fault | None]


def _read_rows(path: str | Path, header: list[str] | None = None) -> list[Row]:
    """Every row of a table that holds something other than whitespace.

    Rows are kept as tuples: the collector stops tracking a tuple of
    strings, but scans every live list again on each full collection.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(map(tuple, csv.reader(fh)))
    rows = list(compress(rows, map(str.strip, map("".join, rows))))
    if header and (not rows or [c.strip() for c in rows[0]] != header):
        raise ScenarioError("parse error", f"{path}: expected header {','.join(header)}")
    return rows


def _flag(text: str) -> bool:
    if text not in ("0", "1"):
        raise ValueError(f"is_baseline must be 0 or 1, got {text!r}")
    return text == "1"


def _row_fault(row: Row, width: int, spec: Spec) -> Fault | None:
    """The first fault of ``row``: its field count, then each cell ``spec`` checks."""
    if len(row) != width:
        return "parse error", f"expected {width} fields, got {len(row)}"
    for j, convert in spec:
        try:
            convert(row[j].strip())
        except ValueError as exc:
            found = str(exc) if convert is _flag else f"expected {_EXPECTED[convert]}, got {row[j]!r}"
            return "parse error", found
    return None


def _first_fault(path: str | Path, fault: RowCheck) -> ScenarioError:
    """The error for the first body row of ``path`` that ``fault`` rejects.

    Only this error path reads a table row by row, to name the row's
    physical line, blank lines included.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        rows = (row for row in reader if "".join(row).strip())
        next(rows, None)  # the header, checked before
        for row in rows:
            found = fault(row)
            if found:
                return ScenarioError(found[0], f"{path}:{reader.line_num}: {found[1]}")
    return ScenarioError("parse error", f"{path}: the table changed while it was read")


def _columns(path: str | Path, rows: list[Row], spec: Spec, fault: RowCheck | None = None) -> list[list]:
    """The body columns ``spec`` names, in its order, stripped and converted.

    A wrong field count or a cell that does not convert raises the error
    :func:`_first_fault` finds with ``fault`` (by default, ``spec``'s checks).
    """
    body, width = rows[1:], len(spec)
    fault = fault or (lambda row: _row_fault(row, width, spec))
    if not set(map(len, body)) <= {width}:
        raise _first_fault(path, fault)
    try:
        return [list(map(convert, map(str.strip, map(itemgetter(j), body)))) for j, convert in spec]
    except ValueError:
        raise _first_fault(path, fault) from None


def _positions(ids: list[int], keys: list[int]) -> np.ndarray:
    """Index of every key in ``ids``, or -1 for a key not among them."""
    index = dict(zip(ids, range(len(ids))))
    return np.fromiter(map(index.get, keys, repeat(-1)), dtype=np.intp, count=len(keys))


def load_datasets(path: str | Path) -> list[DatasetRecord]:
    """The records of a ``datasets.csv`` table; :func:`load_scenario` validates them."""
    rows = _read_rows(path)
    if not rows or rows[0][0].strip() != "id":
        raise ScenarioError("parse error", f"{path}: expected header id,f0,f1,...")
    feat_names = [c.strip() for c in rows[0][1:]]
    if feat_names != [f"f{i}" for i in range(len(feat_names))] or not feat_names:
        raise ScenarioError("parse error", f"{path}: expected feature columns f0,f1,...")
    ids, *features = _columns(path, rows, [(0, int)] + [(j, float) for j in range(1, len(rows[0]))])
    return list(map(DatasetRecord, ids, zip(*features)))


def load_scenario(
    versions_path: str | Path,
    datasets_path: str | Path,
    runtimes_path: str | Path,
) -> Scenario:
    """Load and validate a scenario from its three CSV tables.

    Formats (UTF-8, header row mandatory, ``.`` decimal separator):

    * ``versions.csv``: ``id,name,code_size,is_baseline`` with
      ``is_baseline`` in {0, 1} and exactly one 1 across the table.
    * ``datasets.csv``: ``id,f0,f1,...`` -- the header fixes the feature
      arity for every row.
    * ``runtimes.csv``: ``dataset_id,version_id,runtime_seconds`` with one
      row for every (dataset, version) pair.

    Each table is read once and converted column by column. Raises
    :class:`ScenarioError` on the first violation, in stable table order
    (versions, then datasets, then runtimes, each in row order); a fault
    in a row names the row's physical line in the file.
    """
    vrows = _read_rows(versions_path, _VERSIONS_HEADER)
    flags, ids, names, sizes = _columns(versions_path, vrows, ((3, _flag), (0, int), (1, str), (2, int)))
    versions = list(map(Version, ids, names, sizes, flags))

    datasets = load_datasets(datasets_path)

    rrows = _read_rows(runtimes_path, _RUNTIMES_HEADER)
    seen: set[tuple[int, int]] = set()

    def runtime_fault(row: Row) -> Fault | None:
        found = _row_fault(row, 3, ((0, int), (1, int)))
        if found:
            return found
        key = (int(row[0].strip()), int(row[1].strip()))
        if key in seen:
            return "duplicate cell", f"runtime for (dataset {key[0]}, version {key[1]}) appears twice"
        seen.add(key)
        return _row_fault(row, 3, ((2, float),))

    dataset_col, version_col, times = _columns(
        runtimes_path, rrows, ((0, int), (1, int), (2, float)), runtime_fault
    )
    rows = _positions([d.id for d in datasets], dataset_col)
    cols = _positions([v.id for v in versions], version_col)
    known = (rows >= 0) & (cols >= 0)
    if not known.all() or np.bincount(rows * len(versions) + cols).max(initial=0) > 1:
        # A repeated cell is a fault of its row, so it wins over an
        # unknown id; compare the ids themselves, known or not.
        if _repeats(list(zip(dataset_col, version_col))).any():
            raise _first_fault(runtimes_path, runtime_fault)
        k = int(known.argmin())
        if rows[k] < 0:
            raise ScenarioError("unknown id", f"runtimes reference unknown dataset id {dataset_col[k]}")
        raise ScenarioError("unknown id", f"runtimes reference unknown version id {version_col[k]}")

    matrix = np.full((len(datasets), len(versions)), np.nan)
    matrix[rows, cols] = times
    scenario = Scenario(tuple(versions), tuple(datasets), matrix)
    violations = validate_scenario(scenario)
    if violations:
        raise ScenarioError(violations[0].category, violations[0].message)
    return scenario


def scenario_tables(scenario: Scenario) -> tuple[str, str, str]:
    """The versions, datasets and runtimes CSV texts; floats use shortest round-trip form."""
    versions = [",".join(_VERSIONS_HEADER) + "\n"]
    versions += [f"{v.id},{v.name},{v.code_size},{1 if v.is_baseline else 0}\n" for v in scenario.versions]
    datasets = ["id," + ",".join(f"f{i}" for i in range(scenario.feature_arity)) + "\n"]
    datasets += [f"{d.id}," + ",".join(repr(float(x)) for x in d.features) + "\n" for d in scenario.datasets]
    columns = [f"{v.id}," for v in scenario.versions]
    runtimes = [",".join(_RUNTIMES_HEADER) + "\n"]
    for d, row in zip(scenario.datasets, scenario.runtimes.tolist()):
        runtimes += [f"{d.id},{v}{t!r}\n" for v, t in zip(columns, row)]
    return "".join(versions), "".join(datasets), "".join(runtimes)


def save_scenario(
    scenario: Scenario,
    versions_path: str | Path,
    datasets_path: str | Path,
    runtimes_path: str | Path,
) -> None:
    """Write the three tables of ``scenario_tables``, LF line ends."""
    for path, text in zip((versions_path, datasets_path, runtimes_path), scenario_tables(scenario)):
        Path(path).write_text(text, encoding="utf-8", newline="\n")
