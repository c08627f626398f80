"""Trained-model persistence so CLI stages compose through files.

One text format (`MVMODEL v1`) covers all four learner families:
classifier trees, rule lists, and per-version regressor bundles
(regression trees or linear models). Tree nodes use the ``B``/``L`` node
lines of :mod:`mvkit.nodes`, the same ones a dispatcher document holds.
Thresholds, targets, and coefficients print with 17 significant digits,
so save -> load -> save is byte-stable.
"""

from __future__ import annotations

from dataclasses import fields
from functools import partial
from pathlib import Path
from typing import Mapping

from .errors import MvkitError
from .learners.linear import LinearModel
from .learners.rules import Condition, GT, LE, Rule, RuleConfig, RuleListModel
from .learners.trees import CLASSIFIER, REGRESSOR, TreeConfig, TreeModel
from .nodes import depth_of, format_nodes, g17, parse_nodes

HEADER_PREFIX = "MVMODEL v1"

AnyModel = TreeModel | RuleListModel | dict[int, TreeModel] | dict[int, LinearModel]


class ModelIOError(MvkitError):
    """Model document failure."""


_PARSE_ERROR = partial(ModelIOError, "parse error")


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
            raise ModelIOError(
                "model kind", "a lone regression tree is not a dispatch model; save a bundle"
            )
        extra = {"nodes": str(len(model.nodes))} | _config_pairs(model.config)
        return "\n".join([_header("tree", model.arity, extra), *format_nodes(model.nodes, int)]) + "\n"
    if isinstance(model, RuleListModel):
        extra = {"rules": str(len(model.rules))} | _config_pairs(model.config)
        lines = [_header("rules", model.arity, extra)]
        for rule in model.rules:
            parts = [f"R {rule.label} {len(rule.conditions)}"]
            for cond in rule.conditions:
                parts.append(f"{cond.feature} {cond.op} {g17(cond.threshold)}")
            lines.append(" ".join(parts))
        lines.append(f"D {model.default_label}")
        return "\n".join(lines) + "\n"
    if isinstance(model, Mapping):
        if not model:
            raise ModelIOError("empty bundle", "a PPM bundle needs at least one version model")
        versions = sorted(model)
        first = model[versions[0]]
        if isinstance(first, TreeModel):
            arity = first.arity
            extra = {"versions": str(len(versions))} | _config_pairs(first.config)
            lines = [_header("regtree-bundle", arity, extra)]
            for v in versions:
                sub = model[v]
                if not isinstance(sub, TreeModel) or sub.kind != REGRESSOR:
                    raise ModelIOError("model kind", "regtree bundle must hold regression trees only")
                lines.append(f"V {v}; nodes={len(sub.nodes)}")
                lines.extend(format_nodes(sub.nodes, g17))
            return "\n".join(lines) + "\n"
        arity = first.arity
        lines = [_header("linreg-bundle", arity, {"versions": str(len(versions))})]
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
        if text not in ("0", "1"):
            raise ValueError(f"expected 0 or 1, got {text!r}")
        return text == "1"
    return type(default)(text)


def _parse_tree(
    lines: list[str], linenos: list[int], start: int, count: int, arity: int, kind: str, config: TreeConfig
) -> TreeModel:
    """The ``count`` node lines from ``lines[start]`` on, as a tree of ``kind``."""
    end = start + count
    if end > len(lines):
        raise ModelIOError("parse error", f"line {linenos[-1]}: expected {count} nodes, text ended")
    leaf = int if kind == CLASSIFIER else float
    nodes = parse_nodes(lines[start:end], linenos[start:end], arity, leaf, _PARSE_ERROR)
    return TreeModel(kind, arity, nodes, depth_of(nodes, 0, _PARSE_ERROR), config)


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

    # Each format parses its lines from lines[1] on and leaves ``at`` at the first line it did not use.
    if algorithm == "tree":
        count = _attr_int(attrs, "nodes", head)
        model = _parse_tree(lines, linenos, 1, count, arity, CLASSIFIER, _config_from(TreeConfig, attrs, head))
        at = 1 + count

    elif algorithm == "rules":
        n_rules = _attr_int(attrs, "rules", head)
        config = _config_from(RuleConfig, attrs, head)
        rules: list[Rule] = []
        for at in range(1, n_rules + 1):
            if at >= len(lines):
                raise ModelIOError("parse error", f"line {linenos[at]}: expected {n_rules} rules, text ended")
            parts = lines[at].split()
            if len(parts) < 3 or parts[0] != "R":
                raise ModelIOError("parse error", f"line {linenos[at]}: malformed rule {lines[at]!r}")
            try:
                label, n_conditions = int(parts[1]), int(parts[2])
                if len(parts) != 3 + 3 * n_conditions:
                    raise ValueError
                conditions = []
                for c in range(n_conditions):
                    feature = int(parts[3 + 3 * c])
                    op = parts[4 + 3 * c]
                    threshold = float(parts[5 + 3 * c])
                    if op not in (LE, GT) or not 0 <= feature < arity:
                        raise ValueError
                    conditions.append(Condition(feature, op, threshold))
            except ValueError:
                raise ModelIOError("parse error", f"line {linenos[at]}: malformed rule {lines[at]!r}") from None
            rules.append(Rule(tuple(conditions), label))
        at = n_rules + 1
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
        n_versions = _attr_int(attrs, "versions", head)
        config = _config_from(TreeConfig, attrs, head)
        model = {}
        at = 1
        for _ in range(n_versions):
            if at >= len(lines) or not lines[at].startswith("V "):
                raise ModelIOError("parse error", f"line {linenos[at]}: expected version header")
            try:
                version_part, attr = lines[at].split(";")
                _, version_text = version_part.split()
                key, _, count_text = attr.strip().partition("=")
                if key != "nodes":
                    raise ValueError(key)
                version, count = int(version_text), int(count_text)
            except ValueError:
                raise ModelIOError("parse error", f"line {linenos[at]}: malformed version header {lines[at]!r}") from None
            _check_new_version(model, version, linenos[at])
            model[version] = _parse_tree(lines, linenos, at + 1, count, arity, REGRESSOR, config)
            at += 1 + count

    elif algorithm == "linreg-bundle":
        n_versions = _attr_int(attrs, "versions", head)
        model = {}
        at = 1
        for _ in range(n_versions):
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
            model[version] = LinearModel(numbers[0], tuple(numbers[1:]))
            at += 2

    else:
        raise ModelIOError("parse error", f"line {head}: unknown algorithm {algorithm!r}")
    if at != len(lines):
        raise ModelIOError("parse error", f"line {linenos[at]}: trailing content after the model")
    return model


def save_model(model: AnyModel, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps(model))


def load_model(path: str | Path):
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())
