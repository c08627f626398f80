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

A command builds a :class:`Report` of raw values (numbers, strings,
bools) and :func:`render` formats them in the chosen mode; :func:`parse`
returns the same type holding the text of each value, so
``render(parse(text)) == text`` for every report a command writes, in
either mode.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MvkitError

HEADER_PREFIX = "MVREPORT v1"

MACHINE = "machine"
HUMAN = "human"


class ReportError(MvkitError):
    """Report envelope failure with a stable ``category``."""


@dataclass(frozen=True)
class Table:
    """A named table; cells are raw values when built, text when parsed."""

    name: str
    columns: tuple[str, ...]
    rows: tuple[tuple[object, ...], ...]


@dataclass(frozen=True)
class Report:
    """Fields in emission order, then tables; values are raw when built, text when parsed."""

    kind: str
    fields: tuple[tuple[str, object], ...] = ()
    tables: tuple[Table, ...] = ()

    def get(self, key: str):
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


def parse_flag(text: str) -> bool:
    """The bool that :func:`fmt_value` writes as ``1`` or ``0``; any other text is a ValueError."""
    if text not in ("0", "1"):
        raise ValueError(f"expected 0 or 1, got {text!r}")
    return text == "1"


def render(report: Report, mode: str = MACHINE) -> str:
    """Serialize with LF line ends, each value through :func:`fmt_value` in ``mode``; stable for byte-comparison tests."""
    if mode not in (MACHINE, HUMAN):
        raise ReportError("invalid mode", f"mode must be machine or human, got {mode!r}")
    lines = [f"{HEADER_PREFIX}; kind={report.kind}"]
    lines += (f"{key}={fmt_value(value, mode)}" for key, value in report.fields)
    for table in report.tables:
        lines += (f"[table {table.name}]", ",".join(table.columns))
        lines += (",".join(fmt_value(cell, mode) for cell in row) for row in table.rows)
        lines.append("[end]")
    return "\n".join(lines) + "\n"


def parse(text: str) -> Report:
    """Inverse of :func:`render` holding each value's text, refusing a field key or table name given twice.

    Errors carry the offending line number.
    """
    lines = enumerate(text.splitlines(), start=1)
    _, header = next(lines, (1, ""))
    if not header.startswith(HEADER_PREFIX + "; kind="):
        raise ReportError("parse error", "line 1: missing MVREPORT header")
    kind = header[len(HEADER_PREFIX + "; kind="):].strip()
    if ";" in kind:
        raise ReportError("parse error", f"line 1: malformed MVREPORT header {header!r}")
    fields: dict[str, str] = {}
    tables: dict[str, Table] = {}
    for lineno, line in lines:
        if not line.strip():
            continue
        if line.startswith("[table "):
            if not line.endswith("]"):
                raise ReportError("parse error", f"line {lineno}: malformed table header {line!r}")
            name = line[len("[table "):-1]
            if name in tables:
                raise ReportError("parse error", f"line {lineno}: table {name!r} repeats")
            lineno, column_line = next(lines, (lineno, None))
            if column_line is None:
                raise ReportError("parse error", f"line {lineno}: table {name!r} missing column row")
            columns = tuple(column_line.split(","))
            rows: list[tuple[str, ...]] = []
            for lineno, row_line in lines:
                if row_line == "[end]":
                    break
                row = tuple(row_line.split(","))
                if len(row) != len(columns):
                    raise ReportError(
                        "parse error",
                        f"line {lineno}: row has {len(row)} cells, expected {len(columns)}",
                    )
                rows.append(row)
            else:
                raise ReportError("parse error", f"table {name!r} not closed with [end]")
            tables[name] = Table(name, columns, tuple(rows))
        elif "=" in line:
            key, _, value = line.partition("=")
            if key in fields:
                raise ReportError("parse error", f"line {lineno}: field {key!r} repeats")
            fields[key] = value
        else:
            raise ReportError("parse error", f"line {lineno}: unrecognized content {line!r}")
    return Report(kind, tuple(fields.items()), tuple(tables.values()))
