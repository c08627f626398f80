"""Dispatcher compilation, serialization, templating, and size accounting.

A dispatcher is the portable artifact that picks a version at run time:
the acyclic node array of :mod:`mvkit.nodes` (feature <= threshold goes
left) ending in version-id leaves, the same array a classifier tree
holds. Decision trees therefore compile by renumbering alone; a rule
list is lowered to one chain of branches per rule, where every failure
edge of a rule points at the one entry of the next rule (its shared
fall-through), so n rules with c_i conditions take sum(c_i + 1) + 1 nodes.

The canonical text form (`MVDISPATCH v1`) lists nodes in first-visit
pre-order from the entry (node 0), one per line, with thresholds at 17
significant digits; it is byte-stable and serves as the dispatcher's
size measure. A rendered source-code view is produced from a fragment
template, which expands a shared node at each of its parents, and a
reference interpreter for the default C-like template closes the loop in
tests.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Sequence

from .errors import MvkitError
from .learners.rules import GT, LE, RuleListModel
from .learners.trees import CLASSIFIER, TreeModel
from .nodes import Branch, Leaf, Node, depth_of, format_nodes, g17, parse_nodes, preorder, route

HEADER_PREFIX = "MVDISPATCH v1"


class DispatchError(MvkitError):
    """Dispatcher failure."""


_INVALID = partial(DispatchError, "invalid dispatcher")


@dataclass(frozen=True)
class DispatcherSpec:
    """Immutable compiled dispatcher; evaluation starts at node 0.

    ``byte_size`` is the length of the canonical serialization and stands
    in for the selection mechanism's code-size cost.
    """

    feature_arity: int
    nodes: tuple[Node, ...]

    @cached_property
    def byte_size(self) -> int:
        return len(serialize(self).encode("utf-8"))

    @cached_property
    def leaf_count(self) -> int:
        return sum(1 for n in self.nodes if isinstance(n, Leaf))

    @cached_property
    def depth(self) -> int:
        return depth_of(self.nodes, 0, _INVALID)

    def leaf_versions(self) -> frozenset[int]:
        return frozenset(n.value for n in self.nodes if isinstance(n, Leaf))


# --- compilation ---------------------------------------------------------------


def compile_dispatcher(model: TreeModel | RuleListModel) -> DispatcherSpec:
    """Lower a trained DC model to a dispatcher with identical predictions."""
    if isinstance(model, TreeModel):
        if model.kind != CLASSIFIER:
            raise DispatchError("model kind", "only classifier trees compile to dispatchers")
        for node in model.nodes:
            if isinstance(node, Branch) and not 0 <= node.feature < model.arity:
                raise DispatchError(
                    "feature range", f"feature index {node.feature} outside arity {model.arity}"
                )
        nodes = preorder(model.nodes, 0, _INVALID)
        branches = sum(1 for n in nodes if isinstance(n, Branch))
        if len(nodes) != 2 * branches + 1:  # a shared node would render once per path
            raise _INVALID("tree model shares children; not a tree")
        return DispatcherSpec(model.arity, nodes)
    if isinstance(model, RuleListModel):
        return _compile_rules(model)
    raise DispatchError("model kind", f"cannot compile {type(model).__name__}")


def _compile_rules(model: RuleListModel) -> DispatcherSpec:
    """Each rule becomes a chain of branches ending at its label leaf;
    every failed condition falls through to the one entry of the next
    rule, and past the last rule to the default leaf."""
    nodes: list[Node] = [Leaf(model.default_label)]
    fall_through = 0
    for rule in reversed(model.rules):
        nodes.append(Leaf(rule.label))
        on_pass = len(nodes) - 1
        for cond in reversed(rule.conditions):
            if not 0 <= cond.feature < model.arity:
                raise DispatchError(
                    "feature range", f"feature index {cond.feature} outside arity {model.arity}"
                )
            if cond.op == LE:
                nodes.append(Branch(cond.feature, cond.threshold, on_pass, fall_through))
            elif cond.op == GT:
                nodes.append(Branch(cond.feature, cond.threshold, fall_through, on_pass))
            else:
                raise DispatchError("model kind", f"unknown condition op {cond.op!r}")
            on_pass = len(nodes) - 1
        fall_through = on_pass
    return DispatcherSpec(model.arity, preorder(nodes, fall_through, _INVALID))


# --- evaluation ----------------------------------------------------------------


def eval_dispatcher(spec: DispatcherSpec, x: Sequence[float]) -> tuple[int, int]:
    """Route a feature vector; returns (version id, comparisons made).

    Walks at most node-count steps; running past that, or hitting an
    out-of-range index, reports "invalid dispatcher" rather than looping.
    """
    if len(x) != spec.feature_arity:
        raise DispatchError(
            "feature arity", f"expected arity {spec.feature_arity}, got {len(x)}"
        )
    index, comparisons = route(spec.nodes, x, _INVALID)
    return spec.nodes[index].value, comparisons


# --- canonical text form --------------------------------------------------------


def serialize(spec: DispatcherSpec) -> str:
    """Canonical text: first-visit pre-order nodes, LF line ends, 17-digit thresholds.

    Serializing a deserialized document reproduces it byte for byte.
    """
    nodes = preorder(spec.nodes, 0, _INVALID)
    lines = [f"{HEADER_PREFIX}; arity={spec.feature_arity}; nodes={len(nodes)}"]
    return "\n".join(lines + format_nodes(nodes, int)) + "\n"


def deserialize(text: str) -> DispatcherSpec:
    """Parse the canonical text form; errors name the offending line.

    Nodes may be shared by several branches; a cycle is "invalid
    dispatcher".
    """
    lines = text.splitlines()
    if not lines:
        raise DispatchError("parse error", "line 1: empty dispatcher document")
    header = re.fullmatch(
        re.escape(HEADER_PREFIX) + r"; arity=(\d+); nodes=(\d+)", lines[0].strip()
    )
    if not header:
        raise DispatchError("parse error", f"line 1: malformed header {lines[0]!r}")
    arity, count = int(header.group(1)), int(header.group(2))
    if arity < 1:
        raise DispatchError("parse error", "line 1: arity must be >= 1")
    if len(lines) - 1 != count:
        raise DispatchError(
            "parse error", f"line 1: header promises {count} nodes, found {len(lines) - 1}"
        )
    nodes = parse_nodes(lines[1:], 2, arity, int, partial(DispatchError, "parse error"))
    depth_of(nodes, 0, _INVALID)  # rejects cycles before anything routes through them
    return DispatcherSpec(arity, nodes)


# --- template rendering ----------------------------------------------------------

FRAGMENT_NAMES = ("BRANCH", "FEAT", "VER", "CMP_LE")
DISPATCH_MARK = "{{DISPATCH}}"

DEFAULT_TEMPLATE = """\
{{BRANCH cond then else}}
if ({{cond}}) {
    {{then}}
} else {
    {{else}}
}
{{END}}
{{VER id}}
return {{id}};
{{END}}
{{FEAT i}}
x[{{i}}]
{{END}}
{{CMP_LE}}
<=
{{END}}
int select_version(const double *x) {
    {{DISPATCH}}
}
"""


def _parse_template(template: str) -> tuple[dict[str, str], str]:
    """Split fragment definition blocks from the surrounding body text.

    A block starts at a line `{{NAME ...}}` (NAME one of BRANCH, FEAT,
    VER, CMP_LE) and runs to the next `{{END}}` line; everything else is
    body. Fragment bodies keep internal newlines, minus one trailing one.
    """
    fragments: dict[str, str] = {}
    body_lines: list[str] = []
    lines = template.splitlines()
    i = 0
    opener = re.compile(r"\{\{(" + "|".join(FRAGMENT_NAMES) + r")(\s[^}]*)?\}\}\s*$")
    while i < len(lines):
        m = opener.fullmatch(lines[i].strip()) if lines[i].strip().startswith("{{") else None
        if m and m.group(1) in FRAGMENT_NAMES:
            name = m.group(1)
            block: list[str] = []
            i += 1
            while i < len(lines) and lines[i].strip() != "{{END}}":
                block.append(lines[i])
                i += 1
            if i == len(lines):
                raise DispatchError("template error", f"fragment {name} not closed with {{{{END}}}}")
            fragments[name] = "\n".join(block)
            i += 1
        else:
            body_lines.append(lines[i])
            i += 1
    return fragments, "\n".join(body_lines)


def _substitute(fragment: str, slots: dict[str, str]) -> str:
    """Replace {{slot}} markers, indenting multi-line values to the
    marker's column so nested conditionals stay readable."""
    out = fragment
    for slot, value in slots.items():
        marker = "{{" + slot + "}}"
        while marker in out:
            at = out.index(marker)
            line_start = out.rfind("\n", 0, at) + 1
            prefix = out[line_start:at]
            indent = prefix if prefix.strip() == "" else ""
            indented = value.replace("\n", "\n" + indent)
            out = out[:at] + indented + out[at + len(marker):]
    return out


def render_template(spec: DispatcherSpec, template: str = DEFAULT_TEMPLATE) -> str:
    """Expand the dispatcher into source text shaped by the template.

    The template must define all four fragments (BRANCH with cond/then/
    else slots, VER with an id slot, FEAT with an i slot, CMP_LE with no
    slots) and place one {{DISPATCH}} marker in its body. A shared node
    is expanded again under each of its parents.
    """
    fragments, body = _parse_template(template)
    for name in FRAGMENT_NAMES:
        if name not in fragments:
            raise DispatchError("template error", f"template missing required fragment {name}")
    if DISPATCH_MARK not in body:
        raise DispatchError("template error", "template missing required placeholder {{DISPATCH}}")

    def render_node(index: int) -> str:
        node = spec.nodes[index]
        if isinstance(node, Leaf):
            return _substitute(fragments["VER"], {"id": str(node.value)})
        feat = _substitute(fragments["FEAT"], {"i": str(node.feature)})
        cond = f"{feat} {fragments['CMP_LE']} {g17(node.threshold)}"
        return _substitute(
            fragments["BRANCH"],
            {"cond": cond, "then": render_node(node.left), "else": render_node(node.right)},
        )

    return _substitute(body, {"DISPATCH": render_node(0)}) + (
        "" if body.endswith("\n") else "\n"
    )


# --- reference interpreter for the default template's output ---------------------


def interpret_rendered(rendered: str, x: Sequence[float]) -> int:
    """Evaluate C-like rendered text (default template shape) at x.

    This is a test oracle, not a C parser: it understands exactly the
    `if (x[i] <= t) { ... } else { ... }` / `return id;` nesting the
    default template produces.
    """
    tokens = re.findall(
        r"x\[\d+\]|<=|[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[(){};]|if|else|return|\w+",
        rendered,
    )
    pos = 0

    def peek() -> str | None:
        return tokens[pos] if pos < len(tokens) else None

    def take(expected: str | None = None) -> str:
        nonlocal pos
        if pos >= len(tokens):
            raise DispatchError("interpret error", "unexpected end of rendered text")
        tok = tokens[pos]
        if expected is not None and tok != expected:
            raise DispatchError("interpret error", f"expected {expected!r}, got {tok!r}")
        pos += 1
        return tok

    def statement() -> int:
        tok = peek()
        if tok == "if":
            take("if")
            take("(")
            feat_tok = take()
            m = re.fullmatch(r"x\[(\d+)\]", feat_tok)
            if not m:
                raise DispatchError("interpret error", f"expected feature reference, got {feat_tok!r}")
            feature = int(m.group(1))
            take("<=")
            threshold = float(take())
            take(")")
            take("{")
            if x[feature] <= threshold:
                result = statement()
                take("}")
                take("else")
                take("{")
                _skip_statement()
                take("}")
            else:
                _skip_statement()
                take("}")
                take("else")
                take("{")
                result = statement()
                take("}")
            return result
        if tok == "return":
            take("return")
            value = int(take())
            take(";")
            return value
        raise DispatchError("interpret error", f"unexpected token {tok!r}")

    def _skip_statement() -> None:
        nonlocal pos
        depth = 0
        while pos < len(tokens):
            tok = tokens[pos]
            if tok == "{":
                depth += 1
            elif tok == "}":
                if depth == 0:
                    return
                depth -= 1
            elif tok == ";" and depth == 0 and tokens[pos - 1] != "}":
                # a bare return-statement ends at its semicolon
                pos += 1
                return
            pos += 1

    # Seek the function body: interpret from the first 'if' or 'return'.
    while peek() is not None and peek() not in ("if", "return"):
        take()
    return statement()


# --- code growth ------------------------------------------------------------------


@dataclass(frozen=True)
class CodeGrowth:
    """Binary-size cost split into its two sources, as fractions of the
    baseline binary: the dispatcher itself and the extra versions."""

    selector_growth: float
    multiversioning_growth: float


def code_growth(
    representative: set[int] | frozenset[int] | Sequence[int],
    code_sizes: dict[int, int],
    baseline_binary_size: int,
    spec: DispatcherSpec | None,
) -> CodeGrowth:
    """Size fractions for a selected set plus its selection mechanism.

    A PPM-style selector has no dispatcher document; pass None and its
    growth is reported as 0.
    """
    if baseline_binary_size <= 0:
        raise DispatchError(
            "non-positive measurement", f"baseline binary size must be > 0, got {baseline_binary_size}"
        )
    members = sorted(set(representative))
    for v in members:
        if v not in code_sizes:
            raise DispatchError("unknown version", f"code size missing for version {v}")
    total = sum(code_sizes[v] for v in members)
    selector = spec.byte_size if spec is not None else 0
    return CodeGrowth(
        selector_growth=selector / baseline_binary_size,
        multiversioning_growth=total / baseline_binary_size,
    )
