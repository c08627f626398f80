"""The shared node array: deep chains, shared children and cycles in both formats."""

import ast
from pathlib import Path

import pytest

import mvkit
from mvkit import (
    DispatchError,
    DispatcherSpec,
    ModelIOError,
    compile_dispatcher,
    deserialize,
    eval_dispatcher,
    predict_tree,
    serialize,
)
from mvkit import modelio
from mvkit.nodes import parse_nodes

from conftest import DEEP, chain_node_lines, diamond_lines, dispatcher_text, model_text


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
