"""Trained-model persistence so CLI stages compose through files.

One text format (`MVMODEL v1`) covers all four learner families:
classifier trees, rule lists, and per-version regressor bundles
(regression trees or linear models). Tree nodes use the ``B``/``L`` node
lines of :mod:`mvkit.nodes`, the same ones a dispatcher document holds.
Thresholds, targets, and coefficients print with 17 significant digits,
so dumps -> loads -> dumps is byte-stable.
"""

from __future__ import annotations

import math
from dataclasses import fields
from functools import partial
from typing import Mapping

from .errors import MvkitError
from .learners.linear import LinearModel
from .learners.rules import Condition, Rule, RuleConfig, RuleListModel
from .learners.samples import LearnError
from .learners.trees import CLASSIFIER, REGRESSOR, TreeConfig, TreeModel
from .nodes import format_nodes, g17, parse_nodes
from .report import parse_flag

HEADER_PREFIX = "MVMODEL v1"

AnyModel = TreeModel | RuleListModel | dict[int, TreeModel] | dict[int, LinearModel]


class ModelIOError(MvkitError):
    """Model document failure."""


_PARSE_ERROR = partial(ModelIOError, "parse error")

# Each algorithm's header attributes beyond algorithm and arity: a count, and the pairs of a config.
_HEADERS: dict[str, tuple[str, type | None]] = {
    "tree": ("nodes", TreeConfig),
    "rules": ("rules", RuleConfig),
    "regtree-bundle": ("versions", TreeConfig),
    "linreg-bundle": ("versions", None),
}


def _header(algorithm: str, arity: int, extra: dict[str, str]) -> str:
    parts = [HEADER_PREFIX, f"algorithm={algorithm}", f"arity={arity}"]
    parts.extend(f"{k}={v}" for k, v in extra.items())
    return "; ".join(parts)


def _config_pairs(config: TreeConfig | RuleConfig) -> dict[str, str]:
    """The header pairs of a learner config: its fields in declaration order.

    A flag is ``0`` or ``1`` and an unset seed is ``-``; :func:`_config_value` reads each back.
    """
    values = {f.name: getattr(config, f.name) for f in fields(config)}
    return {k: "-" if v is None else str(int(v)) if isinstance(v, bool) else str(v) for k, v in values.items()}


def dumps(model: AnyModel) -> str:
    """Serialize any supported model to the MVMODEL text form."""
    if isinstance(model, TreeModel):
        if model.kind != CLASSIFIER:
            raise ModelIOError("model kind", "a lone regression tree is not a dispatch model; save a bundle")
        extra = {"nodes": str(len(model.nodes))} | _config_pairs(model.config)
        return "\n".join([_header("tree", model.arity, extra), *format_nodes(model.nodes, int)]) + "\n"
    if isinstance(model, RuleListModel):
        extra = {"rules": str(len(model.rules))} | _config_pairs(model.config)
        lines = [_header("rules", model.arity, extra)]
        for rule in model.rules:
            conditions = "".join(f" {c.feature} {c.op} {g17(c.threshold)}" for c in rule.conditions)
            lines.append(f"R {rule.label} {len(rule.conditions)}{conditions}")
        lines.append(f"D {model.default_label}")
        return "\n".join(lines) + "\n"
    if isinstance(model, Mapping):
        if not model:
            raise ModelIOError("empty bundle", "a PPM bundle needs at least one version model")
        versions = sorted(model)
        first = model[versions[0]]
        if isinstance(first, TreeModel):
            extra = {"versions": str(len(versions))} | _config_pairs(first.config)
            lines = [_header("regtree-bundle", first.arity, extra)]
            for v in versions:
                sub = model[v]
                if not isinstance(sub, TreeModel) or sub.kind != REGRESSOR:
                    raise ModelIOError("model kind", "regtree bundle must hold regression trees only")
                lines.append(f"V {v}; nodes={len(sub.nodes)}")
                lines.extend(format_nodes(sub.nodes, g17))
            return "\n".join(lines) + "\n"
        lines = [_header("linreg-bundle", first.arity, {"versions": str(len(versions))})]
        for v in versions:
            sub = model[v]
            if not isinstance(sub, LinearModel):
                raise ModelIOError("model kind", "linreg bundle must hold linear models only")
            coeffs = " ".join(g17(c) for c in sub.coefficients)
            lines.append(f"V {v}")
            lines.append(f"C {g17(sub.intercept)} {coeffs}".rstrip())
        return "\n".join(lines) + "\n"
    raise ModelIOError("model kind", f"cannot serialize {type(model).__name__}")


def _parse_header(line: str, head: int) -> dict[str, str]:
    """The attributes of the header ``line``; ``head`` is its line number."""
    parts = [p.strip() for p in line.split(";")]
    if not parts or parts[0] != HEADER_PREFIX:
        raise ModelIOError("parse error", f"line {head}: expected {HEADER_PREFIX!r} header")
    attrs: dict[str, str] = {}
    for part in parts[1:]:
        key, eq, value = part.partition("=")
        if not eq:
            raise ModelIOError("parse error", f"line {head}: malformed header attribute {part!r}")
        if key in attrs:
            raise ModelIOError("parse error", f"line {head}: header repeats {key}")
        attrs[key] = value
    return attrs


def _attr_int(attrs: dict[str, str], key: str, head: int) -> int:
    try:
        return int(attrs[key])
    except KeyError:
        raise ModelIOError("parse error", f"line {head}: header missing {key}") from None
    except ValueError:
        raise ModelIOError("parse error", f"line {head}: {key} must be an integer") from None


def _config_from(config_type: type, attrs: dict[str, str], head: int) -> TreeConfig | RuleConfig:
    """A ``config_type`` built from its pairs in ``attrs``; a missing pair takes the field's default."""
    try:
        return config_type(**{
            f.name: _config_value(attrs[f.name], f.default) for f in fields(config_type) if f.name in attrs
        })
    except ValueError as exc:  # LearnError is one too
        what = config_type.__name__.removesuffix("Config").lower()
        raise ModelIOError("parse error", f"line {head}: bad {what} config ({exc})") from None


def _config_value(text: str, default: object) -> object:
    """One value written by :func:`_config_pairs`, for a field whose default is ``default``."""
    if default is None:  # an optional seed
        return None if text == "-" else int(text)
    if isinstance(default, bool):
        return parse_flag(text)
    return type(default)(text)


def _parse_tree(
    lines: list[str], linenos: list[int], start: int, count: int, arity: int, kind: str, config: TreeConfig
) -> TreeModel:
    """The ``count`` node lines from ``lines[start]`` on, as a tree of ``kind``; a cycle is a parse error."""
    end = start + count
    if end > len(lines):
        raise ModelIOError("parse error", f"line {linenos[-1]}: expected {count} nodes, text ended")
    leaf = int if kind == CLASSIFIER else float
    nodes = parse_nodes(lines[start:end], linenos[start:end], arity, leaf, _PARSE_ERROR)
    try:
        return TreeModel(kind, arity, nodes, config)
    except LearnError as exc:  # the only one a parsed node array can raise: a cycle
        raise ModelIOError("parse error", exc.message) from None


def _check_new_version(model: dict, version: int, lineno: int) -> None:
    if version in model:
        raise ModelIOError("parse error", f"line {lineno}: version {version} appears twice in the bundle")


def loads(text: str) -> AnyModel:
    """Parse an MVMODEL document back into its model object.

    Blank lines are skipped; errors name a line by its number in ``text``.
    """
    physical = text.splitlines()
    linenos = [n for n, ln in enumerate(physical, start=1) if ln.strip()]
    lines = [physical[n - 1] for n in linenos]
    linenos.append(len(physical) + 1)  # where the text ends
    if not lines:
        raise ModelIOError("parse error", "line 1: empty model document")
    head = linenos[0]
    attrs = _parse_header(lines[0], head)
    algorithm = attrs.get("algorithm")
    arity = _attr_int(attrs, "arity", head)
    if arity < 1:
        raise ModelIOError("parse error", f"line {head}: arity must be >= 1")
    if algorithm not in _HEADERS:
        raise ModelIOError("parse error", f"line {head}: unknown algorithm {algorithm!r}")
    count_key, config_type = _HEADERS[algorithm]
    config_keys = [f.name for f in fields(config_type)] if config_type else []
    unknown = [key for key in attrs if key not in ("algorithm", "arity", count_key, *config_keys)]
    if unknown:
        raise ModelIOError("parse error", f"line {head}: unknown header attribute {unknown[0]!r}")
    count = _attr_int(attrs, count_key, head)
    config = _config_from(config_type, attrs, head) if config_type else None

    # Each format parses its lines from lines[1] on and leaves ``at`` at the first line it did not use.
    if algorithm == "tree":
        model = _parse_tree(lines, linenos, 1, count, arity, CLASSIFIER, config)
        at = 1 + count

    elif algorithm == "rules":
        rules: list[Rule] = []
        for at in range(1, count + 1):
            if at >= len(lines):
                raise ModelIOError("parse error", f"line {linenos[at]}: expected {count} rules, text ended")
            # R label n, then n triples: feature op threshold
            parts = lines[at].split()
            try:
                label, n_conditions = int(parts[1]), int(parts[2])
                triples = [parts[k:k + 3] for k in range(3, len(parts), 3)]
                conditions = tuple(Condition(int(f), op, float(t)) for f, op, t in triples)
                if parts[0] != "R" or len(conditions) != n_conditions or any(not 0 <= c.feature < arity for c in conditions):
                    raise ValueError
            except (ValueError, IndexError):
                raise ModelIOError("parse error", f"line {linenos[at]}: malformed rule {lines[at]!r}") from None
            rules.append(Rule(conditions, label))
        at = count + 1
        if at >= len(lines) or not lines[at].startswith("D "):
            raise ModelIOError("parse error", f"line {linenos[at]}: missing default label line")
        try:
            _, default_text = lines[at].split()
            default = int(default_text)
        except ValueError:
            raise ModelIOError("parse error", f"line {linenos[at]}: malformed default {lines[at]!r}") from None
        model = RuleListModel(tuple(rules), default, arity, config)
        at += 1

    elif algorithm == "regtree-bundle":
        model = {}
        at = 1
        for _ in range(count):
            if at >= len(lines) or not lines[at].startswith("V "):
                raise ModelIOError("parse error", f"line {linenos[at]}: expected version header")
            try:
                version_part, attr = lines[at].split(";")
                _, version_text = version_part.split()
                key, _, nodes_text = attr.strip().partition("=")
                if key != "nodes":
                    raise ValueError(key)
                version, nodes = int(version_text), int(nodes_text)
            except ValueError:
                raise ModelIOError("parse error", f"line {linenos[at]}: malformed version header {lines[at]!r}") from None
            _check_new_version(model, version, linenos[at])
            model[version] = _parse_tree(lines, linenos, at + 1, nodes, arity, REGRESSOR, config)
            at += 1 + nodes

    else:  # linreg-bundle
        model = {}
        at = 1
        for _ in range(count):
            if at + 1 >= len(lines) or not lines[at].startswith("V ") or not lines[at + 1].startswith("C "):
                raise ModelIOError("parse error", f"line {linenos[at]}: expected V/C line pair")
            try:
                _, version_text = lines[at].split()
                version = int(version_text)
            except ValueError:
                raise ModelIOError("parse error", f"line {linenos[at]}: malformed version line {lines[at]!r}") from None
            _check_new_version(model, version, linenos[at])
            try:
                numbers = [float(x) for x in lines[at + 1].split()[1:]]
            except ValueError:
                raise ModelIOError("parse error", f"line {linenos[at + 1]}: malformed coefficients") from None
            if len(numbers) != arity + 1:
                raise ModelIOError(
                    "parse error", f"line {linenos[at + 1]}: expected {arity + 1} numbers, got {len(numbers)}"
                )
            if not all(map(math.isfinite, numbers)):
                raise ModelIOError("parse error", f"line {linenos[at + 1]}: non-finite coefficient")
            model[version] = LinearModel(numbers[0], tuple(numbers[1:]))
            at += 2

    if at != len(lines):
        raise ModelIOError("parse error", f"line {linenos[at]}: trailing content after the model")
    return model

