"""Structured text reports: key=value fields plus named CSV tables.

Every command emits the same envelope so downstream tooling parses one
format:

    MVREPORT v1; kind=<kind>
    some_key=some_value
    [table name]
    col_a,col_b
    1,2
    [end]

Machine mode renders floats with ``repr`` (shortest round-trip form), so
a report is byte-identical across runs given identical inputs; human mode
rounds to six significant digits and pads nothing else, so the two modes
differ only in number formatting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import MvkitError

HEADER_PREFIX = "MVREPORT v1"

MACHINE = "machine"
HUMAN = "human"


class ReportError(MvkitError):
    """Report envelope failure with a stable ``category``."""


@dataclass(frozen=True)
class Table:
    name: str
    columns: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class Report:
    kind: str
    fields: tuple[tuple[str, str], ...] = ()
    tables: tuple[Table, ...] = ()

    def get(self, key: str) -> str:
        for k, v in self.fields:
            if k == key:
                return v
        raise ReportError("missing key", f"report has no field {key!r}")

    def table(self, name: str) -> Table:
        for t in self.tables:
            if t.name == name:
                return t
        raise ReportError("missing table", f"report has no table {name!r}")


def fmt_value(value, mode: str = MACHINE) -> str:
    """Normalize one value to report text; floats obey the mode."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value) if mode == MACHINE else format(value, ".6g")
    return str(value)


class ReportBuilder:
    """Accumulates fields and tables in emission order."""

    def __init__(self, kind: str, mode: str = MACHINE) -> None:
        if mode not in (MACHINE, HUMAN):
            raise ReportError("invalid mode", f"mode must be machine or human, got {mode!r}")
        self.kind = kind
        self.mode = mode
        self._fields: list[tuple[str, str]] = []
        self._tables: list[Table] = []

    def add(self, key: str, value) -> "ReportBuilder":
        self._fields.append((key, fmt_value(value, self.mode)))
        return self

    def add_table(self, name: str, columns: list[str], rows: list[tuple]) -> "ReportBuilder":
        text_rows = tuple(tuple(fmt_value(c, self.mode) for c in row) for row in rows)
        self._tables.append(Table(name, tuple(columns), text_rows))
        return self

    def build(self) -> Report:
        return Report(self.kind, tuple(self._fields), tuple(self._tables))


def render(report: Report) -> str:
    """Serialize with LF line ends; stable for byte-comparison tests."""
    lines = [f"{HEADER_PREFIX}; kind={report.kind}"]
    for key, value in report.fields:
        lines.append(f"{key}={value}")
    for table in report.tables:
        lines.append(f"[table {table.name}]")
        lines.append(",".join(table.columns))
        for row in table.rows:
            lines.append(",".join(row))
        lines.append("[end]")
    return "\n".join(lines) + "\n"


def parse(text: str) -> Report:
    """Inverse of :func:`render`; errors carry the offending line number."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith(HEADER_PREFIX + "; kind="):
        raise ReportError("parse error", "line 1: missing MVREPORT header")
    kind = lines[0][len(HEADER_PREFIX + "; kind="):].strip()
    fields: list[tuple[str, str]] = []
    tables: list[Table] = []
    i = 1
    while i < len(lines):
        line = lines[i]
        if not line.strip():
            i += 1
            continue
        if line.startswith("[table "):
            if not line.endswith("]"):
                raise ReportError("parse error", f"line {i + 1}: malformed table header {line!r}")
            name = line[len("[table "):-1]
            i += 1
            if i >= len(lines):
                raise ReportError("parse error", f"line {i}: table {name!r} missing column row")
            columns = tuple(lines[i].split(","))
            i += 1
            rows: list[tuple[str, ...]] = []
            while i < len(lines) and lines[i] != "[end]":
                row = tuple(lines[i].split(","))
                if len(row) != len(columns):
                    raise ReportError(
                        "parse error",
                        f"line {i + 1}: row has {len(row)} cells, expected {len(columns)}",
                    )
                rows.append(row)
                i += 1
            if i >= len(lines):
                raise ReportError("parse error", f"table {name!r} not closed with [end]")
            tables.append(Table(name, columns, tuple(rows)))
            i += 1
        elif "=" in line:
            key, _, value = line.partition("=")
            fields.append((key, value))
            i += 1
        else:
            raise ReportError("parse error", f"line {i + 1}: unrecognized content {line!r}")
    return Report(kind, tuple(fields), tuple(tables))
