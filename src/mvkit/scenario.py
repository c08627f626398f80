"""Core data model: versions, datasets, runtime matrix, speedups.

A scenario couples a set of differently optimized code versions of one hot
function (exactly one of them flagged as the baseline) with a set of
datasets and a complete matrix of measured runtimes. Speedups are always
the baseline runtime divided by the version runtime, so the baseline row
is exactly 1.0 and values below 1.0 are slowdowns.

Scenarios are ingested from three CSV files (see ``load_scenario``). All
types are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable

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
    def candidate_ids(self) -> tuple[int, ...]:
        return tuple(v for v in self.version_ids if v != self.baseline_id)

    @property
    def n_datasets(self) -> int:
        return len(self.dataset_ids)

    def speedup(self, version_id: int, dataset_id: int) -> float:
        return float(
            self.entries[self._version_index[version_id], self.dataset_ids.index(dataset_id)]
        )

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
    runs over the same scenario produce identical reports.
    """
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
            violations.append(
                Violation("versions", (v.id,), "invalid id", f"version id {v.id} is negative")
            )
        if v.id in seen:
            violations.append(
                Violation("versions", (v.id,), "duplicate id", f"version id {v.id} appears twice")
            )
        seen.add(v.id)
        if v.code_size < 1:
            violations.append(
                Violation(
                    "versions",
                    (v.id,),
                    "non-positive measurement",
                    f"version {v.id} has code_size {v.code_size} < 1",
                )
            )

    arity = scenario.datasets[0].features.__len__() if scenario.datasets else 0
    seen = set()
    for d in scenario.datasets:
        if d.id < 0:
            violations.append(
                Violation("datasets", (d.id,), "invalid id", f"dataset id {d.id} is negative")
            )
        if d.id in seen:
            violations.append(
                Violation("datasets", (d.id,), "duplicate id", f"dataset id {d.id} appears twice")
            )
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
                    Violation(
                        "datasets",
                        (d.id, j),
                        "non-finite feature",
                        f"dataset {d.id} feature f{j} is {x}",
                    )
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


# --- CSV ingestion -----------------------------------------------------------

_VERSIONS_HEADER = ["id", "name", "code_size", "is_baseline"]
_RUNTIMES_HEADER = ["dataset_id", "version_id", "runtime_seconds"]


def _read_rows(path: str | Path) -> list[list[str]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return [row for row in csv.reader(fh) if row and any(cell.strip() for cell in row)]


def _parse_int(text: str, where: str) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise ScenarioError("parse error", f"{where}: expected integer, got {text!r}") from None


def _parse_float(text: str, where: str) -> float:
    try:
        return float(text.strip())
    except ValueError:
        raise ScenarioError("parse error", f"{where}: expected number, got {text!r}") from None


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

    Raises :class:`ScenarioError` on the first violation, in stable table
    order (versions, then datasets, then runtimes).
    """
    vrows = _read_rows(versions_path)
    if not vrows or [c.strip() for c in vrows[0]] != _VERSIONS_HEADER:
        raise ScenarioError(
            "parse error", f"{versions_path}: expected header {','.join(_VERSIONS_HEADER)}"
        )
    versions: list[Version] = []
    for lineno, row in enumerate(vrows[1:], start=2):
        where = f"{versions_path}:{lineno}"
        if len(row) != 4:
            raise ScenarioError("parse error", f"{where}: expected 4 fields, got {len(row)}")
        flag = row[3].strip()
        if flag not in ("0", "1"):
            raise ScenarioError("parse error", f"{where}: is_baseline must be 0 or 1, got {flag!r}")
        versions.append(
            Version(
                id=_parse_int(row[0], where),
                name=row[1].strip(),
                code_size=_parse_int(row[2], where),
                is_baseline=flag == "1",
            )
        )

    drows = _read_rows(datasets_path)
    if not drows or not drows[0] or drows[0][0].strip() != "id":
        raise ScenarioError("parse error", f"{datasets_path}: expected header id,f0,f1,...")
    feat_names = [c.strip() for c in drows[0][1:]]
    if feat_names != [f"f{i}" for i in range(len(feat_names))] or not feat_names:
        raise ScenarioError("parse error", f"{datasets_path}: expected feature columns f0,f1,...")
    datasets: list[DatasetRecord] = []
    for lineno, row in enumerate(drows[1:], start=2):
        where = f"{datasets_path}:{lineno}"
        if len(row) != 1 + len(feat_names):
            raise ScenarioError(
                "parse error", f"{where}: expected {1 + len(feat_names)} fields, got {len(row)}"
            )
        datasets.append(
            DatasetRecord(
                id=_parse_int(row[0], where),
                features=tuple(_parse_float(c, where) for c in row[1:]),
            )
        )

    rrows = _read_rows(runtimes_path)
    if not rrows or [c.strip() for c in rrows[0]] != _RUNTIMES_HEADER:
        raise ScenarioError(
            "parse error", f"{runtimes_path}: expected header {','.join(_RUNTIMES_HEADER)}"
        )
    cells: dict[tuple[int, int], float] = {}
    for lineno, row in enumerate(rrows[1:], start=2):
        where = f"{runtimes_path}:{lineno}"
        if len(row) != 3:
            raise ScenarioError("parse error", f"{where}: expected 3 fields, got {len(row)}")
        key = (_parse_int(row[0], where), _parse_int(row[1], where))
        if key in cells:
            raise ScenarioError(
                "duplicate cell",
                f"{where}: runtime for (dataset {key[0]}, version {key[1]}) appears twice",
            )
        cells[key] = _parse_float(row[2], where)

    return _assemble(versions, datasets, cells)


def _assemble(
    versions: list[Version],
    datasets: list[DatasetRecord],
    cells: dict[tuple[int, int], float],
) -> Scenario:
    version_ids = {v.id for v in versions}
    dataset_ids = {d.id for d in datasets}
    for (did, vid) in cells:
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
    violations = validate_scenario(scenario)
    if violations:
        first = violations[0]
        raise ScenarioError(first.category, first.message)
    return scenario


def save_scenario(
    scenario: Scenario,
    versions_path: str | Path,
    datasets_path: str | Path,
    runtimes_path: str | Path,
) -> None:
    """Write the three CSV tables; floats use shortest round-trip form."""
    with open(versions_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(_VERSIONS_HEADER) + "\n")
        for v in scenario.versions:
            fh.write(f"{v.id},{v.name},{v.code_size},{1 if v.is_baseline else 0}\n")
    arity = scenario.feature_arity
    with open(datasets_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("id," + ",".join(f"f{i}" for i in range(arity)) + "\n")
        for d in scenario.datasets:
            fh.write(f"{d.id}," + ",".join(repr(float(x)) for x in d.features) + "\n")
    with open(runtimes_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(_RUNTIMES_HEADER) + "\n")
        for i, d in enumerate(scenario.datasets):
            for j, v in enumerate(scenario.versions):
                fh.write(f"{d.id},{v.id},{float(scenario.runtimes[i, j])!r}\n")
