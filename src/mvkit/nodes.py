"""The flat node array shared by learned trees and dispatchers.

The array is acyclic and addressed by index: a :class:`Branch` sends
``x[feature] <= threshold`` to ``left`` and everything else to ``right``;
a :class:`Leaf` holds a version id (classifiers and dispatchers) or a mean
target (regression trees). A node may be the child of several branches
(a rule list's shared fall-through); a cycle is never valid. Learned
trees and dispatchers hold the array in the order of :func:`canonical`.
The walks here are iterative and linear in the node count, so depth is
bounded by memory rather than by the interpreter's recursion limit.

Only :func:`canonical` checks an array; :func:`route` trusts it. That check
and :func:`parse_nodes` take ``error``, a callable that turns a message into
the caller's exception (for example ``partial(DispatchError, "invalid
dispatcher")``), so each document format keeps its own error class and category.

The text form is one line per node: ``B feature threshold left right`` or
``L value``, with thresholds at 17 significant digits so that
parse -> format reproduces the bytes.
"""

from __future__ import annotations

import math
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


def canonical(nodes: Sequence[Node], entry: int, arity: int, error: ErrorFactory) -> tuple[tuple[Node, ...], int]:
    """The nodes reachable from ``entry`` in canonical order, and the branches on their longest path.

    Canonical order is first-visit, left-first pre-order with ``entry`` as
    node 0: a shared child is listed once, at its first visit, and
    unreachable nodes are dropped. One walk visits each node once; a path
    that returns to a node still on it, an index outside ``nodes`` or a
    reachable branch on a feature outside ``[0, arity)`` raises ``error``.
    An array already in canonical order keeps its node objects.
    """
    count = len(nodes)
    number = [-1] * count  # position in canonical order, once visited
    below = [-1] * count  # branches beneath a node, once it is finished
    order: list[int] = []
    stack: list[tuple[int, Node | None]] = [(entry, None)]
    while stack:
        index, node = stack.pop()
        if node is not None:  # both children finished
            below[index] = 1 + max(below[node.left], below[node.right])
        elif not 0 <= index < count or number[index] >= 0 > below[index]:  # visited, unfinished: on the path
            raise error(f"node index {index} out of range or cyclic")
        elif number[index] < 0:
            number[index] = len(order)
            order.append(index)
            node = nodes[index]
            if isinstance(node, Branch):
                if not 0 <= node.feature < arity:
                    raise error(f"feature index {node.feature} outside arity {arity}")
                stack += [(index, node), (node.right, None), (node.left, None)]
            else:
                below[index] = 0
    if order == list(range(count)):
        return tuple(nodes), below[entry]
    moved = (nodes[old] for old in order)
    return tuple(
        Branch(n.feature, n.threshold, number[n.left], number[n.right]) if isinstance(n, Branch) else n for n in moved
    ), below[entry]


def route(nodes: Sequence[Node], x: Sequence[float]) -> tuple[int, int]:
    """Walk ``x`` from node 0 to a leaf; returns (leaf index, comparisons).

    ``nodes`` is an array :func:`canonical` accepted for ``len(x)`` features.
    """
    index, comparisons = 0, 0
    while isinstance(node := nodes[index], Branch):
        comparisons += 1
        index = node.left if x[node.feature] <= node.threshold else node.right
    return index, comparisons


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
    linenos: Sequence[int],
    arity: int,
    leaf: Callable[[str], float],
    error: ErrorFactory,
) -> tuple[Node, ...]:
    """Parse ``B``/``L`` lines; ``leaf`` parses a leaf's value.

    Features must lie in ``[0, arity)`` and child indices among ``lines``. A
    threshold may be infinite but not NaN; a float leaf must be finite.
    Errors name ``lines[k]`` as line ``linenos[k]``.
    """
    nodes: list[Node] = []
    for lineno, line in zip(linenos, lines):
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
            if math.isnan(node.threshold):
                raise error(f"line {lineno}: threshold is NaN")
        elif isinstance(node.value, float) and not math.isfinite(node.value):
            raise error(f"line {lineno}: leaf {node.value} is not finite")
        nodes.append(node)
    return tuple(nodes)
