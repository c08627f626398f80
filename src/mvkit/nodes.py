"""The flat node array shared by learned trees and dispatchers.

The array is acyclic and addressed by index: a :class:`Branch` sends
``x[feature] <= threshold`` to ``left`` and everything else to ``right``;
a :class:`Leaf` holds a version id (classifiers and dispatchers) or a mean
target (regression trees). A node may be the child of several branches
(a rule list's shared fall-through); a cycle is never valid. The walks
here are iterative and linear in the node count, so depth is bounded by
memory rather than by the interpreter's recursion limit.

Every check takes ``error``, a callable that turns a message into the
caller's exception (for example ``partial(DispatchError, "invalid
dispatcher")``), so each document format keeps its own error class and
category.

The text form is one line per node: ``B feature threshold left right`` or
``L value``, with thresholds at 17 significant digits so that
parse -> format reproduces the bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

ErrorFactory = Callable[[str], Exception]


@dataclass(frozen=True)
class Branch:
    """Internal node: x[feature] <= threshold goes left, else right."""

    feature: int
    threshold: float
    left: int
    right: int


@dataclass(frozen=True)
class Leaf:
    """Terminal node: a version id or a regression tree's mean target."""

    value: float


Node = Branch | Leaf


def g17(value: float) -> str:
    """17 significant digits: enough to read back the same double."""
    return format(value, ".17g")


def depth_of(nodes: Sequence[Node], entry: int, error: ErrorFactory) -> int:
    """Branches on the longest path from ``entry`` to a leaf.

    Nodes reachable along several paths are walked once (memoized), so
    shared children cost linear time; a path that returns to a node still
    on it, or an index outside ``nodes``, raises ``error``.
    """
    below: dict[int, int] = {}  # finished nodes -> depth beneath them
    on_path: set[int] = set()
    stack: list[tuple[int, Node | None]] = [(entry, None)]
    while stack:
        index, node = stack.pop()
        if node is not None:  # both children finished
            on_path.discard(index)
            below[index] = 1 + max(below[node.left], below[node.right])
        elif index not in below:
            if index in on_path or not 0 <= index < len(nodes):
                raise error(f"node index {index} out of range or cyclic")
            node = nodes[index]
            if isinstance(node, Branch):
                on_path.add(index)
                stack += [(index, node), (node.right, None), (node.left, None)]
            else:
                below[index] = 0
    return below[entry]


def preorder(nodes: Sequence[Node], entry: int, error: ErrorFactory) -> tuple[Node, ...]:
    """Reachable nodes renumbered in first-visit pre-order from ``entry``, which becomes 0.

    A node reached along several paths (a shared child) is listed once,
    at its first visit; unreachable nodes are dropped. A cycle or an index
    outside ``nodes`` raises ``error``.
    """
    depth_of(nodes, entry, error)
    order: list[int] = []
    remap: dict[int, int] = {}
    stack = [entry]
    while stack:
        index = stack.pop()
        if index in remap:
            continue
        remap[index] = len(order)
        order.append(index)
        node = nodes[index]
        if isinstance(node, Branch):
            stack += [node.right, node.left]
    out: list[Node] = []
    for old in order:
        node = nodes[old]
        if isinstance(node, Branch):
            node = Branch(node.feature, node.threshold, remap[node.left], remap[node.right])
        out.append(node)
    return tuple(out)


def route(
    nodes: Sequence[Node], x: Sequence[float], error: ErrorFactory, entry: int = 0
) -> tuple[int, int]:
    """Walk ``x`` from ``entry`` to a leaf; returns (leaf index, comparisons).

    Takes at most node-count steps; running past that, an index outside
    ``nodes`` or a feature outside ``x`` raises ``error`` rather than
    looping or reading past the input.
    """
    index, comparisons = entry, 0
    for _ in range(len(nodes) + 1):
        if not 0 <= index < len(nodes):
            raise error(f"node index {index} out of range")
        node = nodes[index]
        if not isinstance(node, Branch):
            return index, comparisons
        if not 0 <= node.feature < len(x):
            raise error(f"feature index {node.feature} out of range")
        comparisons += 1
        index = node.left if x[node.feature] <= node.threshold else node.right
    raise error("evaluation exceeded node count; cycle suspected")


def format_nodes(nodes: Sequence[Node], leaf: Callable[[float], object]) -> list[str]:
    """One ``B``/``L`` line per node; ``leaf`` formats a leaf's value."""
    return [
        f"B {n.feature} {g17(n.threshold)} {n.left} {n.right}"
        if isinstance(n, Branch)
        else f"L {leaf(n.value)}"
        for n in nodes
    ]


def parse_nodes(
    lines: Sequence[str],
    first_lineno: int,
    arity: int,
    leaf: Callable[[str], float],
    error: ErrorFactory,
) -> tuple[Node, ...]:
    """Parse ``B``/``L`` lines; ``leaf`` parses a leaf's value.

    Features must lie in ``[0, arity)`` and child indices among ``lines``.
    Errors name the line, counting ``lines[0]`` as ``first_lineno``.
    """
    nodes: list[Node] = []
    for lineno, line in enumerate(lines, start=first_lineno):
        parts = line.split()
        shape = (parts[0], len(parts)) if parts else None
        if shape not in (("B", 5), ("L", 2)):
            raise error(f"line {lineno}: unrecognized node {line!r}")
        try:
            node = (
                Leaf(leaf(parts[1]))
                if shape[0] == "L"
                else Branch(int(parts[1]), float(parts[2]), int(parts[3]), int(parts[4]))
            )
        except ValueError:
            raise error(f"line {lineno}: malformed node {line!r}") from None
        if isinstance(node, Branch):
            if not 0 <= node.feature < arity:
                raise error(f"line {lineno}: feature {node.feature} outside arity {arity}")
            if not (0 <= node.left < len(lines) and 0 <= node.right < len(lines)):
                raise error(f"line {lineno}: child index out of range")
        nodes.append(node)
    return tuple(nodes)
