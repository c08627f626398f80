"""The shared node array: deep chains, shared children, cycles and unreachable nodes in both formats,
and `canonical` against the two walks it replaced."""

import ast
import random
from functools import partial
from pathlib import Path
from typing import Callable, Sequence

import pytest

import mvkit
from mvkit import (
    DispatchError,
    DispatcherSpec,
    ModelIOError,
    compile_dispatcher,
    deserialize,
    eval_dispatcher,
    parse,
    predict_tree,
    render_template,
    save_scenario,
    serialize,
)
from mvkit import modelio
from mvkit.nodes import Branch, Leaf, Node, canonical, parse_nodes

from conftest import (
    DEEP,
    chain_node_lines,
    diamond_lines,
    dispatcher_text,
    make_toy_scenario,
    model_text,
    run_mvkit,
)

ErrorFactory = Callable[[str], Exception]

# --- oracle: the two walks that canonical() replaced, kept verbatim ---------------


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


class CountingNodes(tuple):
    """A node tuple that counts how often a walk indexes it."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)


def self_calls(source: str, filename: str) -> list[str]:
    """``file:line name`` of every function whose body calls its own name.

    A call counts when the callee is the bare name, or the same name on
    ``self`` or ``cls``; a nested function calling the outer one counts too.
    """
    found = []
    for func in ast.walk(ast.parse(source, filename)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for call in ast.walk(func):
            if not isinstance(call, ast.Call):
                continue
            callee = call.func
            if (isinstance(callee, ast.Name) and callee.id == func.name) or (
                isinstance(callee, ast.Attribute)
                and callee.attr == func.name
                and isinstance(callee.value, ast.Name)
                and callee.value.id in ("self", "cls")
            ):
                found.append(f"{filename}:{call.lineno} {func.name}")
    return found


class TestNoRecursion:
    """Every walk in the package is iterative, so depth is bounded by memory."""

    def test_no_function_in_the_package_calls_itself(self):
        root = Path(mvkit.__file__).parent
        files = sorted(root.rglob("*.py"))
        assert len(files) > 10
        found = [hit for f in files for hit in self_calls(f.read_text(encoding="utf-8"), str(f))]
        assert found == []

    def test_detector_finds_direct_and_nested_self_calls(self):
        source = (
            "def walk(n):\n    return walk(n - 1)\n"
            "class T:\n    def visit(self):\n        self.visit()\n"
            "def outer():\n    def inner():\n        outer()\n"
            "def load(path):\n    return json.load(path)\n"
        )
        assert sorted(self_calls(source, "x.py")) == ["x.py:2 walk", "x.py:5 visit", "x.py:8 outer"]


class TestDeepChain:
    def test_dispatcher_round_trips_and_routes(self):
        text = dispatcher_text(chain_node_lines(DEEP))
        spec = deserialize(text)
        assert serialize(spec) == text
        assert spec.depth == DEEP
        assert eval_dispatcher(spec, (DEEP - 0.5,)) == (DEEP % 4, DEEP)
        assert eval_dispatcher(spec, (7.0,)) == (7 % 4, 8)

    def test_model_tree_loads_compiles_and_predicts(self):
        text = model_text(chain_node_lines(DEEP))
        model = modelio.loads(text)
        assert model.depth == DEEP
        assert modelio.dumps(model) == text
        assert predict_tree(model, (DEEP - 0.5,)) == (DEEP % 4, DEEP)
        spec = compile_dispatcher(model)
        assert spec.nodes == model.nodes
        assert serialize(spec) == dispatcher_text(chain_node_lines(DEEP))


class TestSharedChildren:
    def test_diamond_depth_reads_each_node_a_bounded_number_of_times(self):
        nodes = CountingNodes(deserialize(dispatcher_text(diamond_lines(20))).nodes)
        assert DispatcherSpec(1, nodes).depth == 20
        assert nodes.reads <= 4 * len(nodes)

    def test_diamond_loads_in_both_formats_but_is_not_a_tree(self):
        spec = deserialize(dispatcher_text(diamond_lines(20)))
        assert spec.depth == 20
        assert eval_dispatcher(spec, (0.0,)) == (1, 20)
        assert modelio.loads(model_text(diamond_lines(20))).depth == 20
        text = serialize(spec)
        assert text == dispatcher_text(diamond_lines(20))
        again = deserialize(text)
        assert serialize(again) == text
        for x in (-1.0, 0.0, 9.5, 30.0):
            assert eval_dispatcher(again, (x,)) == eval_dispatcher(spec, (x,))

    def test_diamond_model_tree_does_not_compile(self):
        with pytest.raises(DispatchError) as exc:
            compile_dispatcher(modelio.loads(model_text(diamond_lines(20))))
        assert exc.value.category == "invalid dispatcher"


CYCLES = {
    "self-loop": ["B 0 1 0 0"],
    # Node 1 is a shared child of node 0 and sits on the cycle 1 -> 2 -> 1.
    "two-node cycle through a shared child": ["B 0 1 1 1", "B 0 1 2 3", "B 0 1 1 3", "L 0"],
}


@pytest.mark.parametrize("lines", CYCLES.values(), ids=CYCLES.keys())
class TestCyclesRejected:
    def test_dispatcher_document(self, lines):
        with pytest.raises(DispatchError) as exc:
            deserialize(dispatcher_text(lines))
        assert exc.value.category == "invalid dispatcher"

    def test_model_document(self, lines):
        with pytest.raises(ModelIOError) as exc:
            modelio.loads(model_text(lines))
        assert exc.value.category == "parse error"

    def test_serializing_a_hand_built_spec(self, lines):
        nodes = parse_nodes(lines, range(1, len(lines) + 1), 1, int, ValueError)
        with pytest.raises(DispatchError) as exc:
            serialize(DispatcherSpec(1, nodes))
        assert exc.value.category == "invalid dispatcher"

    def test_routing_a_hand_built_spec(self, lines):
        nodes = parse_nodes(lines, range(1, len(lines) + 1), 1, int, ValueError)
        with pytest.raises(DispatchError) as exc:
            eval_dispatcher(DispatcherSpec(1, nodes), (0.0,))
        assert exc.value.category == "invalid dispatcher"


# --- canonical() against the oracle ---------------------------------------------

_ORACLE_ERROR = partial(DispatchError, "invalid dispatcher")
SHAPES = ("shuffled", "shared", "back edge", "bad index")


def random_array(seed: int) -> tuple[list[Node], int]:
    """A seeded node array and entry: a DAG with shared children and unreachable nodes.

    ``SHAPES[seed % 4]`` picks the variant: the DAG with its nodes shuffled
    out of order, the DAG as drawn, or one child edge redirected to any
    node (often a cycle) or outside the array.
    """
    rng = random.Random(seed)
    shape = SHAPES[seed % len(SHAPES)]
    count = rng.randint(1, 24)
    nodes: list[Node] = []
    for i in range(count):
        if i == count - 1 or rng.random() < 0.35:
            nodes.append(Leaf(rng.randint(0, 5)))
        else:
            left, right = rng.randint(i + 1, count - 1), rng.randint(i + 1, count - 1)
            nodes.append(Branch(rng.randint(0, 2), rng.choice((0.5, 1.5, 2.5)), left, right))
    entry = 0 if rng.random() < 0.7 else rng.randrange(count)
    branches = [i for i, n in enumerate(nodes) if isinstance(n, Branch)]
    if shape == "shuffled":
        new = list(range(count))
        rng.shuffle(new)
        moved: list[Node] = [Leaf(0)] * count
        for old, node in enumerate(nodes):
            if isinstance(node, Branch):
                node = Branch(node.feature, node.threshold, new[node.left], new[node.right])
            moved[new[old]] = node
        nodes, entry = moved, new[entry]
    elif shape != "shared" and branches:
        at = rng.choice(branches)
        target = rng.randrange(count) if shape == "back edge" else rng.choice((-1, count, count + 3))
        node = nodes[at]
        left, right = (target, node.right) if rng.random() < 0.5 else (node.left, target)
        nodes[at] = Branch(node.feature, node.threshold, left, right)
    return nodes, entry


def outcome(walk, nodes: list[Node], entry: int):
    """``walk(nodes, entry)``, or the error it raises as (category, message)."""
    try:
        return walk(nodes, entry)
    except DispatchError as exc:
        return exc.category, exc.message


def oracle(nodes: list[Node], entry: int) -> tuple[tuple[Node, ...], int]:
    return preorder(nodes, entry, _ORACLE_ERROR), depth_of(nodes, entry, _ORACLE_ERROR)


class TestCanonicalMatchesOracle:
    def test_random_arrays_give_the_same_nodes_depth_or_error(self):
        seen: dict[tuple[str, str], int] = {}
        for seed in range(500):
            nodes, entry = random_array(seed)
            expected = outcome(oracle, nodes, entry)
            got = outcome(lambda ns, e: canonical(ns, e, _ORACLE_ERROR), nodes, entry)
            assert got == expected, f"seed {seed}"
            result = "error" if isinstance(expected[1], str) else "renumbered" if list(expected[0]) != nodes else "as is"
            key = (SHAPES[seed % len(SHAPES)], result)
            seen[key] = seen.get(key, 0) + 1
        # Every shape that can fail did fail, and every shape also gave some valid arrays.
        assert {key for key, hits in seen.items() if hits >= 10} >= {
            ("shuffled", "renumbered"), ("shared", "renumbered"), ("back edge", "error"),
            ("bad index", "error"), ("back edge", "renumbered"), ("bad index", "renumbered"),
        }

    def test_a_canonical_array_comes_back_with_the_same_node_objects(self):
        for seed in range(0, 500, 4):
            nodes, entry = random_array(seed)
            once, depth = canonical(nodes, entry, _ORACLE_ERROR)
            again, depth_again = canonical(list(once), 0, _ORACLE_ERROR)
            assert depth_again == depth
            assert len(again) == len(once) and all(a is b for a, b in zip(again, once))


# --- unreachable nodes --------------------------------------------------------------

UNREACHABLE = {
    # Leaf 3 holds a version outside the representative set but cannot be reached.
    "stray leaf": ["B 0 10.5 1 2", "L 1", "L 2", "L 9"],
    # Branch 3 makes nodes 1 and 2 look shared, but cannot be reached.
    "stray branch": ["B 0 10.5 1 2", "L 1", "L 2", "B 0 3.5 1 2"],
}


@pytest.mark.parametrize("lines", UNREACHABLE.values(), ids=UNREACHABLE.keys())
class TestUnreachableNodesAreDropped:
    def test_dispatcher_holds_only_the_reachable_nodes(self, lines):
        spec = deserialize(dispatcher_text(lines))
        assert spec.nodes == deserialize(dispatcher_text(lines[:3])).nodes
        assert (spec.leaf_versions(), spec.leaf_count, spec.depth) == ({1, 2}, 2, 1)
        assert serialize(spec) == dispatcher_text(lines[:3])

    def test_renders_as_its_canonical_form(self, lines):
        assert render_template(deserialize(dispatcher_text(lines))) == render_template(
            deserialize(dispatcher_text(lines[:3]))
        )

    def test_model_tree_drops_them_too(self, lines):
        model = modelio.loads(model_text(lines))
        assert (model.leaf_count, model.depth) == (2, 1)
        assert modelio.dumps(model) == model_text(lines[:3])

    def test_simulate_accepts_the_dispatcher(self, lines, tmp_path):
        scen = tmp_path / "toy"
        scen.mkdir()
        save_scenario(make_toy_scenario(), *(scen / n for n in ("versions.csv", "datasets.csv", "runtimes.csv")))
        (tmp_path / "disp.txt").write_text(dispatcher_text(lines))
        r = run_mvkit("simulate", "--scenario", scen, "--select-ids", "1,2", "--dispatcher", "disp.txt", cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        assert parse(r.stdout).get("selector_kind") == "dispatcher"
