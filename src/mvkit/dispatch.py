"""Dispatcher compilation, serialization, and templating.

A dispatcher is the portable artifact that picks a version at run time:
the acyclic node array of :mod:`mvkit.nodes` (feature <= threshold goes
left) ending in version-id leaves, the same canonical array a classifier
tree holds. Decision trees therefore compile as they are. A rule list
first drops its trailing rules that conclude the default label. Its own
thresholds then cut the feature space into a grid of cells, each taking
the version ``predict_rules`` reads at one point inside it, and a
bottom-up search over the grid's sub-boxes finds the tree with the fewest
comparisons summed over the cells (then the fewest branches), with one
leaf per version. That tree ships unless it has more nodes than the rule
chain: one chain of branches per rule, where a failure edge of a rule
points into the next rule (its shared fall-through) and conditions a rule
shares with the start of the next rule are tested once. A grid of more
than ``BOX_BUDGET`` sub-boxes ships the chain without a search. Both are
built as canonical node arrays, and only the one that ships becomes a
:class:`DispatcherSpec`.

The canonical text form (`MVDISPATCH v1`) lists nodes in first-visit
pre-order from the entry (node 0), one per line, with thresholds at 17
significant digits; it is byte-stable and serves as the dispatcher's
size measure. A rendered source-code view is produced from a fragment
template in one pass that writes a leaf at every branch that reaches it
and every branch once (a shared branch right after the statement of its
first parent), and a reference interpreter for the default C-like
template closes the loop in tests.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import product
from operator import add
from typing import TYPE_CHECKING, Sequence

from .errors import MvkitError
from .nodes import Branch, Leaf, Node, canonical, format_nodes, g17, parse_nodes, route

if TYPE_CHECKING:
    from .learners.rules import Rule, RuleListModel
    from .learners.trees import TreeModel

HEADER_PREFIX = "MVDISPATCH v1"
# The most sub-boxes of a rule list's threshold grid that the exact search visits. Their count is a product over
# the tested features, so it grows exponentially with them; past the budget the rule chain ships.
BOX_BUDGET = 4096


class DispatchError(MvkitError):
    """Dispatcher failure."""


_INVALID = partial(DispatchError, "invalid dispatcher")


@dataclass(frozen=True)
class DispatcherSpec:
    """Immutable compiled dispatcher; evaluation starts at node 0.

    Construction puts ``nodes`` in :func:`mvkit.nodes.canonical` order and
    sets ``depth``; a cycle, a bad child index or a feature outside
    ``[0, feature_arity)`` is "invalid dispatcher".
    ``byte_size`` is the length of the canonical serialization and stands
    in for the selection mechanism's code-size cost.
    """

    feature_arity: int
    nodes: tuple[Node, ...]
    depth: int = field(init=False)

    def __post_init__(self) -> None:
        nodes, depth = canonical(self.nodes, 0, self.feature_arity, _INVALID)
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
    """Lower a classifier tree or rule list to a dispatcher with identical predictions; refuse any other model."""
    from .learners.rules import RuleListModel  # the learners load only to compile a model
    from .learners.trees import CLASSIFIER, TreeModel

    if isinstance(model, TreeModel):
        if model.kind != CLASSIFIER:
            raise DispatchError("model kind", "only classifier trees compile to dispatchers")
        branches = sum(1 for n in model.nodes if isinstance(n, Branch))
        if len(model.nodes) != 2 * branches + 1:  # a trained tree never shares a node
            raise _INVALID("tree model shares children; not a tree")
        return DispatcherSpec(model.arity, model.nodes)
    if isinstance(model, RuleListModel):
        return _compile_rules(model)
    raise DispatchError("model kind", f"only classifier models compile, not {type(model).__name__}; PPM bundles drive `simulate --model`")


def _compile_rules(model: RuleListModel) -> DispatcherSpec:
    """The cheapest tree over the rule list's threshold grid, or its chain.

    The trailing rules that conclude the default label are dropped first.
    A grid of at most ``BOX_BUDGET`` sub-boxes gets :func:`_grid_tree`,
    which ships unless it has more nodes than :func:`_rule_chain`; only
    the one that ships becomes a :class:`DispatcherSpec`.
    """
    rules = list(model.rules)
    while rules and rules[-1].label == model.default_label:
        rules.pop()
    nodes = _rule_chain(model, rules)
    thresholds: dict[int, set[float]] = {}
    for rule in rules:
        for cond in rule.conditions:
            thresholds.setdefault(cond.feature, set()).add(cond.threshold)
    axes = {f: sorted(thresholds[f]) for f in sorted(thresholds)}
    if math.prod((len(t) + 1) * (len(t) + 2) // 2 for t in axes.values()) <= BOX_BUDGET:
        nodes = min(_grid_tree(model, axes), nodes, key=len)  # the tree on a tie
    return DispatcherSpec(model.arity, nodes)


def _grid_tree(model: RuleListModel, axes: dict[int, list[float]]) -> tuple[Node, ...]:
    """The canonical nodes of the tree that picks ``predict_rules``' version
    on every cell of the grid that ``axes`` (each tested feature's sorted
    thresholds) cut, at the fewest comparisons summed over the cells, then
    the fewest branches, then the lowest (feature, threshold) split; one
    leaf per version. A cell's version is read at one point inside it.

    A sub-box takes one interval (lo, hi) of cells per feature and is
    stored at the sum of (hi * n + lo) * stride, so the parts of every
    split along a feature sit at two evenly spaced runs of indices. One
    pass fills every box after its parts, by each interval's width.
    """
    from .learners.rules import predict_rules

    # A cell's point has each tested feature at the cell's upper threshold, or at NaN above the last (NaN fails
    # every `le` and meets every `gt`, as a branch routes it), and 0.0 elsewhere; its unit box is (c, c) on each.
    features, cuts, strides, total = list(axes), list(axes.values()), [], 1
    for ts in cuts:
        strides.append(total)
        total *= (len(ts) + 1) ** 2
    version: list[int | None] = [None] * total
    x = [0.0] * model.arity
    for cell in product(*(range(len(ts) + 1) for ts in cuts)):
        for f, ts, c in zip(features, cuts, cell):
            x[f] = ts[c] if c < len(ts) else math.nan
        version[sum((c * (len(ts) + 1) + c) * s for ts, s, c in zip(cuts, strides, cell))] = predict_rules(model, x)[0]
    cells, key = [1] * total, [0] * total
    # `order` lists every box after its parts. Aligned with it, `splits[k]` holds per interval of feature k the
    # slices of its split parts: (left start, left step, right step, right stop), as offsets from the box.
    order, splits = [0], []
    for k, ts in enumerate(cuts):
        n, s = len(ts) + 1, strides[k]
        spans = [(lo, lo + w) for w in range(n) for lo in range(n - w)]
        order = [box + (hi * n + lo) * s for lo, hi in spans for box in order]
        splits.append([((lo - hi) * n * s, n * s, s, (hi - lo + 1) * s) if hi > lo else None for lo, hi in spans])
    # A box's key is its comparisons summed over its cells, times `scale`, plus its branches.
    scale = total + 1
    for box, parts in zip(order, product(*reversed(splits))):
        best = None
        for split in reversed(parts):
            if split is None:
                continue
            left, step, right, stop = split
            if best is None:  # the first split tells the box's cells and whether one version fills it
                cells[box] = cells[box + left] + cells[box + right]
                if version[box + left] is not None and version[box + left] == version[box + right]:
                    version[box] = version[box + left]
                    break
                best = min(map(add, key[box + left:box:step], key[box + right:box + stop:right]))
            else:
                best = min(best, *map(add, key[box + left:box:step], key[box + right:box + stop:right]))
        else:
            if best is not None:
                key[box] = best + cells[box] * scale + 1
    nodes: list[Node] = []
    leaf_of: dict[int, int] = {}
    todo = [(order[-1], -1, 0)]  # (box, parent node, side): the last box is the whole grid
    while todo:
        box, parent, side = todo.pop()
        if version[box] is not None:
            index = leaf_of.setdefault(version[box], len(nodes))
            if index == len(nodes):
                nodes.append(Leaf(version[box]))
        else:  # the lowest (feature, threshold) split whose parts add up to the box's key
            index, parts = len(nodes), key[box] - cells[box] * scale - 1
            for k, ts in enumerate(cuts):
                n, s = len(ts) + 1, strides[k]
                hi, lo = divmod(box // s % (n * n), n)
                j = next((j for j in range(lo, hi) if key[box + (j - hi) * n * s] + key[box + (j + 1 - lo) * s] == parts), None)
                if j is not None:
                    break
            nodes.append(Branch(features[k], ts[j], -1, -1))
            todo += [(box + (j + 1 - lo) * s, index, 1), (box + (j - hi) * n * s, index, 0)]
        if parent >= 0:
            node = nodes[parent]
            nodes[parent] = Branch(node.feature, node.threshold, *((index, node.right) if side == 0 else (node.left, index)))
    return tuple(nodes)


def _rule_chain(model: RuleListModel, rules: list[Rule]) -> tuple[Node, ...]:
    """The canonical nodes of the chain: each rule becomes a chain of
    branches ending at its label leaf, built back to front. A rule whose
    first p conditions equal the next rule's makes that rule's copies of
    them unreachable: its failure at condition j < p goes where the next
    rule's failure at j goes, and a later one to the next rule's condition
    p (or its leaf)."""
    from .learners.rules import LE

    nodes: list[Node] = [Leaf(model.default_label)]
    later, at, miss = (), [0], []  # the next rule's conditions, its node per condition then its leaf, and their failure edges
    for rule in reversed(rules):
        conds, shared = rule.conditions, 0
        while shared < min(len(conds), len(later)) and conds[shared] == later[shared]:
            shared += 1
        miss = miss[:shared] + [at[shared]] * (len(conds) - shared)
        nodes.append(Leaf(rule.label))
        at = [len(nodes) - 1]
        for cond, fail in zip(reversed(conds), reversed(miss)):
            nodes.append(Branch(cond.feature, cond.threshold, *((at[-1], fail) if cond.op == LE else (fail, at[-1]))))
            at.append(len(nodes) - 1)
        later, at = conds, at[::-1]
    return canonical(nodes, at[0], model.arity, _INVALID)[0]


# --- evaluation ----------------------------------------------------------------


def eval_dispatcher(spec: DispatcherSpec, x: Sequence[float]) -> tuple[int, int]:
    """Route a feature vector; returns (version id, comparisons made)."""
    if len(x) != spec.feature_arity:
        raise DispatchError(
            "feature arity", f"expected arity {spec.feature_arity}, got {len(x)}"
        )
    index, comparisons = route(spec.nodes, x)
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
EMPTY = "EMPTY"  # optional fragment: the statement written into a side left empty, for languages without empty blocks
UNUSED = "UNUSED"  # optional fragment: the statement written before the leaf of a dispatcher without branches
DISPATCH_MARK = "{{DISPATCH}}"
# An infinite threshold as a C99 constant expression that needs no <math.h>: it overflows to ±infinity.
_INFINITE_LITERALS = {math.inf: "(1e308 * 10)", -math.inf: "(-1e308 * 10)"}

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
{{UNUSED}}
(void)x;
{{END}}
int select_version(const double *x) {
    {{DISPATCH}}
}
"""


def _parse_template(template: str) -> tuple[dict[str, str], str]:
    """Split fragment definition blocks from the surrounding body text.

    A block starts at a line `{{NAME ...}}` (NAME one of BRANCH, FEAT,
    VER, CMP_LE, EMPTY, UNUSED) and runs to the next `{{END}}` line; everything
    else is body. Fragment bodies keep internal newlines, minus one
    trailing one.
    """
    fragments: dict[str, str] = {}
    body_lines: list[str] = []
    lines = template.splitlines()
    i = 0
    opener = re.compile(r"\{\{(" + "|".join((*FRAGMENT_NAMES, EMPTY, UNUSED)) + r")(\s[^}]*)?\}\}\s*$")
    while i < len(lines):
        m = opener.fullmatch(lines[i].strip()) if lines[i].strip().startswith("{{") else None
        if m:
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
    slots) and place exactly one {{DISPATCH}} marker in its body. A slot value
    that starts on a line blank so far indents its later lines to match.
    An optional EMPTY fragment (no slots) fills every then/else side left
    empty, for a language with no empty blocks; an optional UNUSED one
    precedes a branchless dispatcher's leaf. An infinite threshold is
    written `(1e308 * 10)` or `(-1e308 * 10)`, since C has no `inf`.

    One pass over an explicit stack writes a leaf at every branch that
    reaches it, every branch once, and indents each line once. A branch
    with several parents is written right after the statement of the first
    branch that reaches it, and every side inside that statement leading
    to it stays empty, so control falls out to it. Any other sharing of a
    branch (one already written, or a shared one that is not the innermost
    one waiting) is a "template error".
    """
    fragments, body = _parse_template(template)
    for name in FRAGMENT_NAMES:
        if name not in fragments:
            raise DispatchError("template error", f"template missing required fragment {name}")
    marks = body.count(DISPATCH_MARK)
    if marks != 1:
        raise DispatchError("template error", f"template needs exactly one {DISPATCH_MARK} placeholder, found {marks}")
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
            if len(nodes) == 1 and UNUSED in fragments:
                stack.append((indent, fragments[UNUSED] + "\n", False))
            continue
        shared = {c for c in (node.left, node.right) if parents[c] > 1 and isinstance(nodes[c], Branch)}
        for child in shared:
            if not seen[child]:
                seen[child] = 1
                waiting.append(child)
                stack += [(indent, child, True), (indent, "\n", False)]
        if shared - set(waiting[-1:]):
            raise DispatchError("template error", f"node {item} cannot fall out to a shared child")
        feat = fragments["FEAT"].replace("{{i}}", str(node.feature))
        cond = f"{feat} {fragments['CMP_LE']} {_INFINITE_LITERALS.get(node.threshold) or g17(node.threshold)}"
        then, other = (fragments.get(EMPTY) if c in shared else c for c in (node.left, node.right))
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
    else-block, and the first `return` reached gives the version. A
    threshold is a number, `(1e308 * 10)` or `(-1e308 * 10)`; C's `inf` is not.
    """
    tokens = re.findall(
        r"x\[\d+\]|<=|\(-?1e308 \* 10\)|[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[(){};]|if|else|return|\w+",
        " ".join(rendered.split()),  # one space per gap: deep nesting is mostly indent
    )
    infinities = {text: value for value, text in _INFINITE_LITERALS.items()}
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
            literal = take()
            threshold = infinities.get(literal)
            if threshold is None and not re.fullmatch(r"[-+]?[\d.]+(?:[eE][-+]?\d+)?", literal):
                raise DispatchError("interpret error", f"expected a threshold, got {literal!r}")
            threshold = float(literal) if threshold is None else threshold
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
