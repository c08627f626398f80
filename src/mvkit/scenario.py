"""Core data model: versions, datasets, runtime matrix, speedups.

A scenario couples a set of differently optimized code versions of one hot
function (exactly one of them flagged as the baseline) with a set of
datasets and a complete matrix of measured runtimes. Speedups are always
the baseline runtime divided by the version runtime, so the baseline row
is exactly 1.0 and values below 1.0 are slowdowns.

Scenarios are ingested from three CSV files (see ``load_scenario``). One
``np.loadtxt`` pass parses each numeric table into int64/float64 columns that
stay arrays up to the ``(dataset, version)`` matrix, filled by one index
assignment. ``versions.csv`` and the hand-written tables loadtxt refuses take
the row path, one plain pass per table at about five times the bulk cost: it
converts each row's cells in check order and raises at the first fault with
its physical line. Both paths accept the same inputs and raise the same errors.
Validation walks the versions and datasets one record at a time and checks the
runtime matrix in one pass. All types are immutable after construction and thread-safe.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

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

    @property
    def feature_arity(self) -> int:
        return len(self.datasets[0].features) if self.datasets else 0

    @property
    def baseline(self) -> Version:
        """The one version flagged as the baseline; any other count is a "baseline count" error."""
        flagged = [v for v in self.versions if v.is_baseline]
        if len(flagged) != 1:
            raise ScenarioError("baseline count", f"expected exactly 1 baseline, found {len(flagged)}")
        return flagged[0]

    @property
    def baseline_binary_size(self) -> int:
        return self.baseline.code_size

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
        for i, j in np.argwhere(~(np.isfinite(mat) & (mat > 0)))[:1].tolist():
            cell = f"version {self.version_ids[i]} on dataset {self.dataset_ids[j]} has {mat[i, j]}"
            raise ScenarioError("non-positive measurement", f"speedups must be finite and > 0: {cell}")
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
    def candidate_ids(self) -> tuple[int, ...]:
        return tuple(v for v in self.version_ids if v != self.baseline_id)

    @property
    def n_datasets(self) -> int:
        return len(self.dataset_ids)

    def representative(self, ids: Iterable[int], error: Callable[[str, str], Exception]) -> tuple[int, ...]:
        """Sorted ``ids``, each once; ``error(category, message)`` refuses the baseline (every set ships it) and non-versions."""
        rep = tuple(sorted(set(ids)))
        for v in rep:
            if v not in self.candidate_ids:
                why = "the baseline, which every set ships" if v == self.baseline_id else "not in the matrix"
                raise error("unknown version", f"representative version {v} is {why}")
        return rep

    def row_positions(self, version_ids: Iterable[int]) -> np.ndarray:
        """The rows of ``version_ids`` in ``entries`` and ``log_entries``, in the order given."""
        return np.fromiter(map(self._version_index.__getitem__, version_ids), dtype=np.intp)


def speedups(scenario: Scenario) -> SpeedupMatrix:
    """Build the speedup matrix of a valid scenario.

    ``s(v, d) = t(baseline, d) / t(v, d)``. The baseline row is exactly 1.0
    because IEEE division of a finite positive number by itself is exact.
    """
    base = scenario.baseline
    runtimes = scenario.runtimes  # (D, V)
    base_col = runtimes[:, scenario.versions.index(base)]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # A zero runtime, or a ratio past the float range, yields a
        # non-finite entry here; the matrix constructor turns that into a
        # ScenarioError.
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
    table (versions, datasets, runtimes, scenario), then by record in table
    order (runtime cells row by row), then by check, so two runs over the
    same scenario produce identical reports.
    """
    versions, datasets, runtimes = scenario.versions, scenario.datasets, scenario.runtimes
    violations: list[Violation] = []
    baseline_ids = sorted(v.id for v in versions if v.is_baseline)
    if len(baseline_ids) != 1:
        message = f"expected exactly 1 baseline, found {len(baseline_ids)}"
        violations.append(Violation("versions", tuple(baseline_ids), "baseline count", message))

    # Each record: a negative id, a repeated id, then its table's own checks.
    arity = scenario.feature_arity
    for table, records in (("versions", versions), ("datasets", datasets)):
        noun, seen = table[:-1], set()
        for r in records:
            if r.id < 0:
                violations.append(Violation(table, (r.id,), "invalid id", f"{noun} id {r.id} is negative"))
            if r.id in seen:
                violations.append(Violation(table, (r.id,), "duplicate id", f"{noun} id {r.id} appears twice"))
            seen.add(r.id)
            if table == "versions":
                if r.code_size < 1:
                    message = f"version {r.id} has code_size {r.code_size} < 1"
                    violations.append(Violation(table, (r.id,), "non-positive measurement", message))
                continue
            if len(r.features) != arity or arity < 1:
                message = f"dataset {r.id} has arity {len(r.features)}, expected {max(arity, 1)}"
                violations.append(Violation(table, (r.id,), "feature arity", message))
            for k, x in enumerate(r.features):
                if not math.isfinite(x):
                    message = f"dataset {r.id} feature f{k} is {x}"
                    violations.append(Violation(table, (r.id, k), "non-finite feature", message))

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


# --- CSV ingestion -----------------------------------------------------------

_VERSIONS_HEADER = ["id", "name", "code_size", "is_baseline"]
_RUNTIMES_HEADER = ["dataset_id", "version_id", "runtime_seconds"]
_EXPECTED = {int: "integer", float: "number"}
_CELL_ENDS = bytes(byte in b",\r\n" for byte in range(256))  # translates a comma or line end to 1, the rest to 0


def _rows(path: str | Path) -> Iterator[tuple[int, list[str]]]:
    """``(physical line, row)`` for each row holding more than whitespace. The table is decoded whole before any
    row is parsed: a byte that is not UTF-8 fails the table first, at its line, and a CSV error comes after the rows
    before it."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line, at = len((data[: exc.start] + b".").splitlines()), exc.start  # lines end as csv's do
        message = f"byte 0x{data[at]:02x} at offset {at} is not UTF-8"
        raise ScenarioError("parse error", f"{path}:{line}: {message}") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        for row in reader:
            if "".join(row).strip():
                yield reader.line_num, row
    except csv.Error as exc:
        raise ScenarioError("parse error", f"{path}:{reader.line_num}: {exc}") from None


def _header(path: str | Path, table: Iterator[tuple[int, list[str]]], header: list[str]) -> None:
    if [c.strip() for c in next(table, (0, []))[1]] != header:
        raise ScenarioError("parse error", f"{path}: expected header {','.join(header)}")


def _flag(text: str) -> bool:
    if text not in ("0", "1"):
        raise ValueError(f"is_baseline must be 0 or 1, got {text!r}")
    return text == "1"


def _cells(path: str | Path, line: int, row: list[str], width: int, spec: Iterable[tuple[int, Callable]]) -> list:
    """The stripped cells of ``row`` that ``spec`` names as ``(column, converter)``, converted in its order; a wrong
    field count, then the first cell that does not convert, is a parse error at ``path:line``."""
    if len(row) != width:
        raise ScenarioError("parse error", f"{path}:{line}: expected {width} fields, got {len(row)}")
    cells = []
    for j, convert in spec:
        try:
            cells.append(convert(row[j].strip()))
        except ValueError as exc:
            found = str(exc) if convert is _flag else f"expected {_EXPECTED[convert]}, got {row[j]!r}"
            raise ScenarioError("parse error", f"{path}:{line}: {found}") from None
    return cells


def _runtime_columns(path: str | Path) -> tuple[list[int], list[int], list[float]]:
    """The dataset id, version id and runtime columns of a ``runtimes.csv`` table, read row by row.

    A row's ids are checked before its runtime: a repeated (dataset, version) is a fault of its row.
    """
    cells: dict[tuple[int, int], float] = {}
    table = _rows(path)
    _header(path, table, _RUNTIMES_HEADER)
    for line, row in table:
        d, v = key = tuple(_cells(path, line, row, 3, ((0, int), (1, int))))
        if key in cells:
            message = f"runtime for (dataset {d}, version {v}) appears twice"
            raise ScenarioError("duplicate cell", f"{path}:{line}: {message}")
        cells[key] = _cells(path, line, row, 3, ((2, float),))[0]
    return [d for d, _ in cells], [v for _, v in cells], list(cells.values())


def _bulk(path: str | Path, header: Callable[[int], list[str]]) -> list[np.ndarray] | None:
    """The body columns of a numeric table in one ``np.loadtxt`` pass, or None for the row path.

    Only a table whose first line is ``header(width)``, all ASCII (a non-ASCII cell loadtxt refuses can
    corrupt its next call) and with a cell end in every 320-byte block (so no cell reaches the 641 digits
    ``int`` may refuse) is parsed: ids as int64, the rest as float64, as ``int``/``float`` would, minus
    quotes, ``_`` and ids past int64. Any refusal or warning returns None; columns stay arrays."""
    try:
        with open(path, "rb") as fh:
            head = fh.readline().rstrip(b"\r\n").decode("utf-8").split(",")
            if head != header(len(head)):
                return None
            fh.seek(0)
            for chunk in iter(lambda: fh.read(320 << 10), b""):  # whole 320-byte blocks, never the whole file
                ends = np.frombuffer(chunk.translate(_CELL_ENDS), np.bool_)
                blocks = ends[: len(ends) // 320 * 320].reshape(-1, 320)  # a cell of 639 bytes fills one
                if not chunk.isascii() or not blocks.any(axis=1).all():
                    return None
        dtype = [(name, np.int64 if name.endswith("id") else np.float64) for name in head]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(path, dtype, delimiter=",", skiprows=1, comments=None, encoding="ascii", ndmin=1)
    except (OSError, ValueError, OverflowError, Warning):
        return None
    return [table[name] for name in head]


def _positions(ids: list[int], keys: Sequence[int] | np.ndarray) -> np.ndarray:
    """Index of every key in ``ids`` (its last, if repeated), or -1 for a key not among them."""
    if not isinstance(keys, np.ndarray):  # row-path keys, ints of any size
        index = dict(zip(ids, range(len(ids))))
        return np.fromiter(map(index.get, keys, repeat(-1)), dtype=np.intp, count=len(keys))
    # (id, index) by id, then index, after a sentinel that answers -1; an id past int64 matches no key.
    table = np.array([(-(2**63), -1), *sorted((i, p) for p, i in enumerate(ids) if -(2**63) <= i < 2**63)], np.int64)
    at = np.searchsorted(table[:, 0], keys, side="right") - 1
    at[table[at, 0] != keys] = 0
    return table[at, 1]


def load_datasets(path: str | Path) -> list[DatasetRecord]:
    """The records of a ``datasets.csv`` table; :func:`load_scenario` validates them."""
    columns = _bulk(path, lambda width: ["id"] + [f"f{i}" for i in range(width - 1)] if width > 1 else [])
    if columns is not None:
        ids, *features = [column.tolist() for column in columns]  # records hold Python numbers
        return list(map(DatasetRecord, ids, zip(*features)))
    table = _rows(path)
    header = [c.strip() for c in next(table, (0, [""]))[1]]
    if header[0] != "id":
        raise ScenarioError("parse error", f"{path}: expected header id,f0,f1,...")
    if header[1:] != [f"f{i}" for i in range(len(header) - 1)] or len(header) < 2:
        raise ScenarioError("parse error", f"{path}: expected feature columns f0,f1,...")
    spec = [(0, int)] + [(j, float) for j in range(1, len(header))]
    records = []
    for line, row in table:
        dataset_id, *features = _cells(path, line, row, len(header), spec)
        records.append(DatasetRecord(dataset_id, tuple(features)))
    return records


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

    Each table is read in one pass, a numeric one by :func:`_bulk`. Raises
    :class:`ScenarioError` on the first violation, in stable table order
    (versions, then datasets, then runtimes, each in row order); a fault
    in a row names the row's physical line in the file.
    """
    table = _rows(versions_path)
    _header(versions_path, table, _VERSIONS_HEADER)
    versions = []
    for line, row in table:
        flag, vid, name, size = _cells(versions_path, line, row, 4, ((3, _flag), (0, int), (1, str), (2, int)))
        versions.append(Version(vid, name, size, flag))

    datasets = load_datasets(datasets_path)
    columns = _bulk(runtimes_path, lambda width: _RUNTIMES_HEADER)
    dataset_col, version_col, times = columns or _runtime_columns(runtimes_path)
    rows = _positions([d.id for d in datasets], dataset_col)
    cols = _positions([v.id for v in versions], version_col)
    known = (rows >= 0) & (cols >= 0)
    if not known.all() or np.bincount(rows * len(versions) + cols).max(initial=0) > 1:
        # A repeated cell is a fault of its row, so it wins over an
        # unknown id; compare the ids themselves, known or not.
        if len(set(zip(dataset_col, version_col))) < len(dataset_col):
            _runtime_columns(runtimes_path)  # raises "duplicate cell" naming the line that repeats one
            raise ScenarioError("parse error", f"{runtimes_path}: the table changed while it was read")
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
