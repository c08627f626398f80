"""Dispatcher compilation, serialization, templating, and size accounting.

A dispatcher is the portable artifact that picks a version at run time:
the acyclic node array of :mod:`mvkit.nodes` (feature <= threshold goes
left) ending in version-id leaves, the same canonical array a classifier
tree holds. Decision trees therefore compile as they are; a rule list is
lowered to one chain of branches per rule, where every failure edge of a
rule points at the one entry of the next rule (its shared fall-through),
so n rules with c_i conditions take sum(c_i + 1) + 1 nodes.

The canonical text form (`MVDISPATCH v1`) lists nodes in first-visit
pre-order from the entry (node 0), one per line, with thresholds at 17
significant digits; it is byte-stable and serves as the dispatcher's
size measure. A rendered source-code view is produced from a fragment
template in one pass that writes every node once (a shared node right
after the statement of its first parent), and a reference interpreter
for the default C-like template closes the loop in tests.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Sequence

from .errors import MvkitError
from .learners.rules import GT, LE, RuleListModel
from .learners.trees import CLASSIFIER, TreeModel
from .nodes import Branch, Leaf, Node, canonical, format_nodes, g17, parse_nodes, route

HEADER_PREFIX = "MVDISPATCH v1"


class DispatchError(MvkitError):
    """Dispatcher failure."""


_INVALID = partial(DispatchError, "invalid dispatcher")


@dataclass(frozen=True)
class DispatcherSpec:
    """Immutable compiled dispatcher; evaluation starts at node 0.

    Construction puts ``nodes`` in :func:`mvkit.nodes.canonical` order and
    sets ``depth``; it refuses a cycle, a bad child index ("invalid
    dispatcher") and a feature outside the arity ("feature range").
    ``byte_size`` is the length of the canonical serialization and stands
    in for the selection mechanism's code-size cost.
    """

    feature_arity: int
    nodes: tuple[Node, ...]
    depth: int = field(init=False)

    def __post_init__(self) -> None:
        nodes, depth = canonical(self.nodes, 0, _INVALID)
        for n in nodes:
            if isinstance(n, Branch) and not 0 <= n.feature < self.feature_arity:
                raise DispatchError(
                    "feature range", f"feature index {n.feature} outside arity {self.feature_arity}"
                )
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "depth", depth)

    @cached_property
    def byte_size(self) -> int:
        return len(serialize(self).encode("utf-8"))

    @cached_property
    def leaf_count(self) -> int:
        return sum(1 for n in self.nodes if isinstance(n, Leaf))

    def leaf_versions(self) -> frozenset[int]:
        return frozenset(n.value for n in self.nodes if isinstance(n, Leaf))


# --- compilation ---------------------------------------------------------------


def compile_dispatcher(model: TreeModel | RuleListModel) -> DispatcherSpec:
    """Lower a trained DC model to a dispatcher with identical predictions."""
    if isinstance(model, TreeModel):
        if model.kind != CLASSIFIER:
            raise DispatchError("model kind", "only classifier trees compile to dispatchers")
        branches = sum(1 for n in model.nodes if isinstance(n, Branch))
        if len(model.nodes) != 2 * branches + 1:  # a trained tree never shares a node
            raise _INVALID("tree model shares children; not a tree")
        return DispatcherSpec(model.arity, model.nodes)
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
            if cond.op == LE:
                nodes.append(Branch(cond.feature, cond.threshold, on_pass, fall_through))
            elif cond.op == GT:
                nodes.append(Branch(cond.feature, cond.threshold, fall_through, on_pass))
            else:
                raise DispatchError("model kind", f"unknown condition op {cond.op!r}")
            on_pass = len(nodes) - 1
        fall_through = on_pass
    return DispatcherSpec(model.arity, canonical(nodes, fall_through, _INVALID)[0])


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
    """Canonical text: the spec's nodes, LF line ends, 17-digit thresholds.

    Serializing a deserialized canonical document reproduces it byte for byte.
    """
    lines = [f"{HEADER_PREFIX}; arity={spec.feature_arity}; nodes={len(spec.nodes)}"]
    return "\n".join(lines + format_nodes(spec.nodes, int)) + "\n"


def deserialize(text: str) -> DispatcherSpec:
    """Parse the canonical text form; errors name the offending line.

    Nodes may be shared by several branches; a cycle is "invalid
    dispatcher". Unreachable nodes are dropped and the rest renumbered to
    canonical order, which is the order :func:`serialize` writes.
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
    nodes = parse_nodes(lines[1:], range(2, len(lines) + 1), arity, int, partial(DispatchError, "parse error"))
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


def render_template(spec: DispatcherSpec, template: str = DEFAULT_TEMPLATE) -> str:
    """Expand the dispatcher into source text shaped by the template.

    The template must define all four fragments (BRANCH with cond/then/
    else slots, VER with an id slot, FEAT with an i slot, CMP_LE with no
    slots) and place one {{DISPATCH}} marker in its body. A slot value
    that starts on a line blank so far indents its later lines to match.

    One pass over an explicit stack writes every node once and indents
    each line once. A node with several parents is written right after the
    statement of the first branch that reaches it, and every side inside
    that statement leading to it stays empty, so control falls out to it.
    Any other sharing (a node already written, or a shared node that is
    not the innermost one waiting) is a "template error".
    """
    fragments, body = _parse_template(template)
    for name in FRAGMENT_NAMES:
        if name not in fragments:
            raise DispatchError("template error", f"template missing required fragment {name}")
    if DISPATCH_MARK not in body:
        raise DispatchError("template error", "template missing required placeholder {{DISPATCH}}")
    nodes = spec.nodes
    parents = [1] + [0] * (len(nodes) - 1)  # {{DISPATCH}} is the entry's parent
    for node in nodes:
        if isinstance(node, Branch):
            parents[node.left] += 1
            parents[node.right] += 1
    seen = bytearray(len(nodes))
    waiting: list[int] = []  # shared nodes due after an open statement, innermost last
    stack: list[tuple[str, str | int, bool]] = []  # (indent, text or node, fills a slot)
    out: list[str] = []
    line = ""  # the last output line so far

    def push(fragment: str, slots: str, values: dict, indent: str) -> None:
        parts = re.split(r"\{\{(" + slots + r")\}\}", fragment)
        for k in reversed(range(len(parts))):
            if k % 2 == 0:
                stack.append((indent, parts[k], False))
            elif values[parts[k]] is not None:
                stack.append((indent, values[parts[k]], True))

    push(body, "DISPATCH", {"DISPATCH": 0}, "")
    while stack:
        indent, item, fills_slot = stack.pop()
        if fills_slot and not line.strip():
            indent = line
        if isinstance(item, str):
            out.append(item.replace("\n", "\n" + indent))
            line = (line + out[-1]).rpartition("\n")[2]
            continue
        if waiting[-1:] == [item]:
            waiting.pop()
        seen[item] = 1
        node = nodes[item]
        if isinstance(node, Leaf):
            push(fragments["VER"], "id", {"id": str(node.value)}, indent)
            continue
        shared = {c for c in (node.left, node.right) if parents[c] > 1}
        for child in shared:
            if not seen[child]:
                seen[child] = 1
                waiting.append(child)
                stack += [(indent, child, True), (indent, "\n", False)]
        if shared - set(waiting[-1:]):
            raise DispatchError("template error", f"node {item} cannot fall out to a shared child")
        feat = fragments["FEAT"].replace("{{i}}", str(node.feature))
        cond = f"{feat} {fragments['CMP_LE']} {g17(node.threshold)}"
        then, other = (None if c in shared else c for c in (node.left, node.right))
        push(fragments["BRANCH"], "cond|then|else", {"cond": cond, "then": then, "else": other}, indent)
    return "".join(out) + ("" if body.endswith("\n") else "\n")


# --- reference interpreter for the default template's output ---------------------


def interpret_rendered(rendered: str, x: Sequence[float]) -> int:
    """Evaluate C-like rendered text (default template shape) at x.

    This is a test oracle, not a C parser: it understands exactly the
    `if (x[i] <= t) { ... } else { ... }` / `return id;` statements the
    default template produces, where a block runs its statements in order
    and may be empty. One forward pass: a true test enters the then-block,
    a false one skips to the else-block, leaving a then-block skips its
    else-block, and the first `return` reached gives the version.
    """
    tokens = re.findall(
        r"x\[\d+\]|<=|[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[(){};]|if|else|return|\w+",
        " ".join(rendered.split()),  # one space per gap: deep nesting is mostly indent
    )
    pos = 0

    def take(*expected: str) -> str:
        """Consume one token, or the expected ones in order; return the last."""
        nonlocal pos
        for want in expected or (None,):
            if pos >= len(tokens):
                raise DispatchError("interpret error", "unexpected end of rendered text")
            tok = tokens[pos]
            if want is not None and tok != want:
                raise DispatchError("interpret error", f"expected {want!r}, got {tok!r}")
            pos += 1
        return tok

    def skip_block() -> None:  # from just inside a '{' to just past its '}'
        depth = 1
        while depth:
            tok = take()
            depth += (tok == "{") - (tok == "}")

    # Seek the function body: interpret from the first 'if' or 'return'.
    while pos < len(tokens) and tokens[pos] not in ("if", "return"):
        pos += 1
    while True:
        tok = take()
        if tok == "if":
            take("(")
            feat_tok = take()
            m = re.fullmatch(r"x\[(\d+)\]", feat_tok)
            if not m:
                raise DispatchError("interpret error", f"expected feature reference, got {feat_tok!r}")
            take("<=")
            threshold = float(take())
            take(")", "{")
            if not x[int(m.group(1))] <= threshold:
                skip_block()
                take("else", "{")
        elif tok == "return":
            value = int(take())
            take(";")
            return value
        elif tok == "}":
            if pos < len(tokens) and tokens[pos] == "else":
                take("else", "{")
                skip_block()
        else:
            raise DispatchError("interpret error", f"unexpected token {tok!r}")


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
