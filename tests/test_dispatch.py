"""Dispatcher compilation, the text format, templates, and the interpreter."""

import itertools
import random
import re
from pathlib import Path

import pytest

from mvkit import (
    Constraints,
    DEFAULT_TEMPLATE,
    DispatchError,
    DispatcherSpec,
    RuleConfig,
    compile_dispatcher,
    deserialize,
    eval_dispatcher,
    greedy_select,
    interpret_rendered,
    make_dc_labels,
    predict_rules,
    predict_tree,
    render_template,
    serialize,
    speedups,
    train_rule_list,
    train_tree_classifier,
)
from mvkit.cli import main
from mvkit.dispatch import _INVALID, FRAGMENT_NAMES, Branch, Leaf, _parse_template
from mvkit.learners import LabeledSample
from mvkit.learners.rules import GT, LE, Condition, Rule, RuleListModel
from mvkit.modelio import loads
from mvkit.nodes import Node, canonical, g17
from mvkit.rng import Rng
from mvkit.scenario import load_datasets

from conftest import chain_node_lines, diamond_lines, dispatcher_text

GOLDEN = Path(__file__).parent / "golden"

FOUR = [
    LabeledSample((2.0,), 1),
    LabeledSample((4.0,), 1),
    LabeledSample((8.0,), 2),
    LabeledSample((10.0,), 2),
]


def planted_dispatcher(planted):
    cfg, scenario, _ = planted
    matrix = speedups(scenario)
    result = greedy_select(
        matrix, scenario.code_sizes(), scenario.baseline_binary_size, Constraints(max_versions=4)
    )
    model = train_tree_classifier(make_dc_labels(scenario, matrix, set(result.selected)))
    return model, compile_dispatcher(model)


class TestCompileAndEval:
    def test_single_leaf(self):
        model = train_tree_classifier([LabeledSample((1.0,), 5), LabeledSample((2.0,), 5)])
        spec = compile_dispatcher(model)
        assert spec.nodes == (Leaf(5),)
        assert eval_dispatcher(spec, (0.0,)) == (5, 0)

    def test_depth_one_tree_has_three_nodes(self):
        spec = compile_dispatcher(train_tree_classifier(FOUR))
        assert len(spec.nodes) == 3
        assert spec.depth == 1
        assert spec.leaf_count == 2
        assert eval_dispatcher(spec, (6.0,)) == (1, 1)
        assert eval_dispatcher(spec, (6.1,)) == (2, 1)

    def test_tree_equivalence_on_grid(self):
        model = train_tree_classifier(
            [LabeledSample((float(i % 8), float(i % 5)), (i * 7) % 3 + 1) for i in range(64)]
        )
        spec = compile_dispatcher(model)
        rng = Rng(55)
        for _ in range(2000):
            x = (rng.uniform(-1, 9), rng.uniform(-1, 6))
            assert predict_tree(model, x)[0] == eval_dispatcher(spec, x)[0]

    def test_eval_checks_arity(self):
        spec = compile_dispatcher(train_tree_classifier(FOUR))
        with pytest.raises(DispatchError):
            eval_dispatcher(spec, (1.0, 2.0))

    def test_malformed_graph_rejected(self):
        with pytest.raises(DispatchError) as exc:
            DispatcherSpec(
                feature_arity=1,
                nodes=(Branch(0, 1.0, 0, 0),),  # self-loop
            ).depth
        assert "invalid dispatcher" in str(exc.value)


class TestRulesLowering:
    def rules_model(self) -> RuleListModel:
        return RuleListModel(
            rules=(
                Rule((Condition(0, "le", 3.0),), 1),
                Rule((Condition(0, "gt", 6.0), Condition(0, "le", 7.0)), 2),
            ),
            default_label=9,
            arity=1,
            config=RuleConfig(),
        )

    def test_lowered_kind_and_equivalence(self):
        model = self.rules_model()
        spec = compile_dispatcher(model)
        for x in (2.0, 3.0, 3.5, 6.0, 6.5, 7.0, 7.5, 100.0):
            assert predict_rules(model, (x,))[0] == eval_dispatcher(spec, (x,))[0]

    def test_learned_rules_lower_equivalently(self):
        rng = Rng(77)
        samples = [
            LabeledSample((rng.uniform(0, 10), rng.uniform(0, 10)), rng.randint(1, 3))
            for _ in range(80)
        ]
        model = train_rule_list(samples)
        spec = compile_dispatcher(model)
        for _ in range(2000):
            x = (rng.uniform(-1, 11), rng.uniform(-1, 11))
            assert predict_rules(model, x)[0] == eval_dispatcher(spec, x)[0]


def random_rules(rules: int, conditions: int, arity: int, seed: int) -> RuleListModel:
    """``rules`` rules of ``conditions`` random conditions each, labels 1..5, default 9."""
    rng = Rng(seed)
    return RuleListModel(
        rules=tuple(
            Rule(
                tuple(
                    Condition(rng.randint(0, arity - 1), (LE, GT)[rng.randint(0, 1)],
                              rng.uniform(0, 10))
                    for _ in range(conditions)
                ),
                rng.randint(1, 5),
            )
            for _ in range(rules)
        ),
        default_label=9,
        arity=arity,
        config=RuleConfig(),
    )


class TestLinearLowering:
    """Every failure edge of a rule points at the one entry of the next rule."""

    def test_five_rules_of_two_conditions_take_sixteen_nodes(self):
        spec = compile_dispatcher(random_rules(5, 2, 2, seed=5))
        assert len(spec.nodes) == 5 * (2 + 1) + 1

    def test_forty_rules_of_three_conditions_agree_everywhere(self):
        model = random_rules(40, 3, 3, seed=40)
        spec = compile_dispatcher(model)
        assert len(spec.nodes) == 40 * (3 + 1) + 1
        text = serialize(spec)
        again = deserialize(text)
        assert serialize(again) == text
        rng = Rng(4003)
        for _ in range(2000):
            x = tuple(rng.uniform(-1, 11) for _ in range(3))
            want = predict_rules(model, x)[0]
            assert eval_dispatcher(spec, x)[0] == want
            assert eval_dispatcher(again, x)[0] == want

    def test_two_rule_document_is_numbered_in_first_visit_preorder(self):
        spec = compile_dispatcher(TestRulesLowering().rules_model())
        assert serialize(spec) == (
            "MVDISPATCH v1; arity=1; nodes=6\n"
            "B 0 3 1 2\n"  # rule 0: x <= 3 returns 1, else rule 1
            "L 1\n"
            "B 0 6 3 4\n"  # rule 1: x > 6 ...
            "L 9\n"  # the default, shared by both failure edges of rule 1
            "B 0 7 5 3\n"  # ... and x <= 7 returns 2
            "L 2\n"
        )

    @pytest.mark.parametrize("rules,conditions", [(1, 1), (2, 2), (5, 2)])
    def test_rendered_source_agrees_with_the_rules(self, rules, conditions):
        model = random_rules(rules, conditions, 2, seed=rules * 10 + conditions)
        rendered = render_template(compile_dispatcher(model))
        rng = Rng(rules)
        for _ in range(500):
            x = (rng.uniform(-1, 11), rng.uniform(-1, 11))
            assert interpret_rendered(rendered, x) == predict_rules(model, x)[0]


# --- oracle: the reverse lowering the rule-order one replaced, verbatim but for canonical's arity ---


def oracle_compile_rules(model: RuleListModel) -> DispatcherSpec:
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
    return DispatcherSpec(model.arity, canonical(nodes, fall_through, model.arity, _INVALID)[0])


def seeded_rules(seed: int) -> RuleListModel:
    """Up to six rules of zero to three conditions on arity ``1 + seed % 4``, thresholds often repeated."""
    rng = random.Random(seed)
    arity = 1 + seed % 4
    rules = tuple(
        Rule(
            tuple(
                Condition(rng.randrange(arity), rng.choice((LE, GT)), rng.choice((0.5, 1.5, rng.uniform(-5, 5))))
                for _ in range(rng.choice((0, 1, 1, 2, 3)))
            ),
            rng.randint(1, 5),
        )
        for _ in range(rng.randint(0, 6))
    )
    return RuleListModel(rules, rng.randint(0, 5), arity, RuleConfig())


def threshold_grid(model: RuleListModel) -> list[tuple[float, ...]]:
    """Per feature, each threshold and one point past the highest: a point on both sides of every threshold."""
    axes = [sorted({c.threshold for r in model.rules for c in r.conditions if c.feature == f}) for f in range(model.arity)]
    return list(itertools.product(*([*axis, axis[-1] + 1.0] if axis else [0.0] for axis in axes)))


def ends_in_the_default(model: RuleListModel) -> bool:
    return bool(model.rules) and model.rules[-1].label == model.default_label


def opens_like_the_rule_before(model: RuleListModel) -> bool:
    pairs = zip(model.rules, model.rules[1:])
    return any(a.conditions[:1] and a.conditions[:1] == b.conditions[:1] for a, b in pairs)


def test_rule_order_lowering_writes_the_reverse_lowerings_bytes():
    """Byte for byte where nothing is shared or dropped; elsewhere the same picks, never dearer."""
    seen = {"no rules": 0, "a rule with no conditions before the last": 0, "gt first": 0, "rewritten": 0}
    arities = set()
    for seed in range(3000):
        model = seeded_rules(seed)
        spec, oracle = compile_dispatcher(model), oracle_compile_rules(model)
        if not (ends_in_the_default(model) or opens_like_the_rule_before(model)):
            assert serialize(spec) == serialize(oracle), f"seed {seed}"
        else:
            seen["rewritten"] += 1
            assert len(spec.nodes) <= len(oracle.nodes), f"seed {seed}"
            for x in threshold_grid(model):
                (got, cost), (want, oracle_cost) = eval_dispatcher(spec, x), eval_dispatcher(oracle, x)
                assert got == want and cost <= oracle_cost, f"seed {seed} at {x}"
        arities.add(model.arity)
        seen["no rules"] += not model.rules
        seen["a rule with no conditions before the last"] += any(not r.conditions for r in model.rules[:-1])
        seen["gt first"] += any(r.conditions[:1] and r.conditions[0].op == GT for r in model.rules)
    assert arities == {1, 2, 3, 4}
    assert min(seen.values()) >= 100, seen


def repeated_rules(seed: int) -> RuleListModel:
    """Up to 20 rules of zero to four conditions on arity ``1 + seed % 3``, thresholds and labels from few values.

    Half the rules open with a prefix of the rule before, so consecutive rules often share
    conditions, and the last rules often conclude the default label.
    """
    rng = random.Random(seed)
    arity = 1 + seed % 3
    rules: list[Rule] = []
    for _ in range(rng.randint(0, 20)):
        kept = rules[-1].conditions[:rng.randint(0, 4)] if rules and rng.random() < 0.5 else ()
        fresh = tuple(
            Condition(rng.randrange(arity), rng.choice((LE, GT)), rng.choice((0.5, 1.5, 2.5)))
            for _ in range(rng.randint(0, 4) - len(kept))
        )
        rules.append(Rule(kept + fresh, rng.randint(0, 3)))
    return RuleListModel(tuple(rules), rng.randint(0, 3), arity, RuleConfig())


def test_shared_conditions_lower_to_every_readings_pick_at_no_more_comparisons():
    seen = {"shares a condition": 0, "drops a default tail": 0, "20 rules": 0, "4 conditions": 0}
    arities = set()
    for seed in range(3000):
        model = repeated_rules(seed)
        spec = compile_dispatcher(model)
        rendered = render_template(spec)
        scope: dict = {}
        exec(render_template(spec, PYTHON_TEMPLATE), scope)
        for x in threshold_grid(model):
            want, counted = predict_rules(model, x)
            got, cost = eval_dispatcher(spec, x)
            assert got == want and cost <= counted, f"seed {seed} at {x}"
            assert interpret_rendered(rendered, x) == want, f"seed {seed} at {x}"
            assert scope["select_version"](x) == want, f"seed {seed} at {x}"
        arities.add(model.arity)
        seen["shares a condition"] += opens_like_the_rule_before(model)
        seen["drops a default tail"] += ends_in_the_default(model)
        seen["20 rules"] += len(model.rules) == 20
        seen["4 conditions"] += any(len(r.conditions) == 4 for r in model.rules)
    assert arities == {1, 2, 3}
    assert min(seen.values()) >= 100, seen


QUICK_START_RULES_GEN = [
    "gen", "--versions", "5", "--datasets", "160", "--features", "2", "--regions", "4", "--seed", "21",
    "--feature-range", "1,12", "--test-datasets", "80", "--noise-sigma", "0.1", "--test-seed", "77",
]


def test_quick_start_rule_list_at_noise_0_1_takes_17_nodes_and_283_comparisons(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main([*QUICK_START_RULES_GEN, "--out-dir", "scen"]) == 0
    assert main(["select", "--scenario", "scen", "--max-versions", "4", "--out", "sel.rep"]) == 0
    assert main(["train", "--scenario", "scen", "--selection", "sel.rep", "--algorithm", "rules", "--out", "model.mv"]) == 0
    model = loads(Path("model.mv").read_text(encoding="utf-8"))
    spec = compile_dispatcher(model)
    test = load_datasets("scen/test/datasets.csv")
    assert (len(model.rules), len(spec.nodes), len(test)) == (12, 17, 80)
    assert sum(eval_dispatcher(spec, d.features)[1] for d in test) == 283
    assert [eval_dispatcher(spec, d.features)[0] for d in test] == [predict_rules(model, d.features)[0] for d in test]


class TestSerialization:
    def test_round_trip_identity(self):
        spec = compile_dispatcher(train_tree_classifier(FOUR))
        text = serialize(spec)
        again = deserialize(text)
        assert serialize(again) == text
        assert again.feature_arity == spec.feature_arity
        assert again.nodes == spec.nodes

    def test_serialized_shape(self):
        spec = compile_dispatcher(train_tree_classifier(FOUR))
        lines = serialize(spec).splitlines()
        assert lines[0] == "MVDISPATCH v1; arity=1; nodes=3"
        assert lines[1].startswith("B 0 6 ")
        assert lines[2] == "L 1"
        assert lines[3] == "L 2"

    def test_byte_size_is_serialized_length(self):
        spec = compile_dispatcher(train_tree_classifier(FOUR))
        assert spec.byte_size == len(serialize(spec).encode("utf-8"))

    def test_corrupt_child_index(self):
        with pytest.raises(DispatchError) as exc:
            deserialize("MVDISPATCH v1; arity=2; nodes=2\nB 0 1.0 1 5\nL 3\n")
        assert exc.value.category == "parse error"
        assert "line 2" in str(exc.value)

    def test_corrupt_header(self):
        with pytest.raises(DispatchError) as exc:
            deserialize("MVREPORT v1; kind=selection\n")
        assert "line 1" in str(exc.value)

    def test_node_count_mismatch(self):
        with pytest.raises(DispatchError):
            deserialize("MVDISPATCH v1; arity=1; nodes=2\nL 1\n")

    def test_golden_planted_dispatcher(self, planted):
        """Frozen bytes for the seeded planted scenario must never drift."""
        _, spec = planted_dispatcher(planted)
        assert serialize(spec) == (GOLDEN / "dispatcher_planted.txt").read_text()

    def test_golden_rendered_source(self, planted):
        _, spec = planted_dispatcher(planted)
        rendered = render_template(spec, DEFAULT_TEMPLATE)
        assert rendered == (GOLDEN / "rendered_planted.c").read_text()


class TestTemplate:
    def test_default_template_renders_compilable_shape(self):
        spec = compile_dispatcher(train_tree_classifier(FOUR))
        rendered = render_template(spec, DEFAULT_TEMPLATE)
        assert "int select_version(const double *x)" in rendered
        assert "x[0] <= 6" in rendered
        assert "return 1;" in rendered and "return 2;" in rendered
        assert rendered.count("{") == rendered.count("}")

    def test_missing_fragment_is_template_error(self):
        spec = compile_dispatcher(train_tree_classifier(FOUR))
        broken = DEFAULT_TEMPLATE.replace("{{VER", "{{VERSION", 1)
        with pytest.raises(DispatchError) as exc:
            render_template(spec, broken)
        assert exc.value.category == "template error"

    def test_missing_dispatch_marker_is_template_error(self):
        spec = compile_dispatcher(train_tree_classifier(FOUR))
        broken = DEFAULT_TEMPLATE.replace("{{DISPATCH}}", "nothing here")
        with pytest.raises(DispatchError):
            render_template(spec, broken)

    def test_interpreter_matches_eval(self):
        model = train_tree_classifier(
            [LabeledSample((float(i % 8), float(i % 5)), (i * 7) % 3 + 1) for i in range(64)]
        )
        spec = compile_dispatcher(model)
        rendered = render_template(spec, DEFAULT_TEMPLATE)
        rng = Rng(99)
        for _ in range(1000):
            x = (rng.uniform(-1, 9), rng.uniform(-1, 6))
            assert interpret_rendered(rendered, x) == eval_dispatcher(spec, x)[0]

    def test_single_leaf_renders_plain_return(self):
        model = train_tree_classifier([LabeledSample((1.0,), 5), LabeledSample((2.0,), 5)])
        spec = compile_dispatcher(model)
        rendered = render_template(spec, DEFAULT_TEMPLATE)
        assert "return 5;" in rendered
        assert "if" not in rendered.split("select_version")[1]
        assert interpret_rendered(rendered, (0.0,)) == 5


# --- oracle: the recursive renderer that the one-pass renderer replaced ---------


def _substitute(fragment, slots):
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


def recursive_render(spec, template):
    """Expand every node under each of its parents, one recursion per level."""
    fragments, body = _parse_template(template)
    assert all(name in fragments for name in FRAGMENT_NAMES)

    def render_node(index):
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


PYTHON_TEMPLATE = """\
# generated selector
{{BRANCH cond then else}}
if {{cond}}:
    {{then}}
else:
  {{else}}
{{END}}
{{VER id}}
return {{id}}
{{END}}
{{FEAT i}}
x[{{i}}]
{{END}}
{{CMP_LE}}
<=
{{END}}
{{EMPTY}}
pass
{{END}}
def select_version(x):
    {{DISPATCH}}
"""


def random_tree(seed: int, arity: int = 3) -> DispatcherSpec:
    """A seeded random tree of up to 9 levels, nodes in pre-order."""
    rng = Rng(seed)
    nodes: list = []
    todo = [0]  # depths of the subtrees still to write, next on top
    while todo:
        depth = todo.pop()
        if depth >= 9 or rng.random() < 0.12 + 0.06 * depth:
            nodes.append(Leaf(rng.randint(0, 6)))
            continue
        threshold = rng.uniform(-50, 50) * 10.0 ** rng.randint(-8, 8)
        nodes.append(Branch(rng.randint(0, arity - 1), threshold, -1, -1))
        todo += [depth + 1, depth + 1]
    # Link each branch to its two subtrees: the left one starts right after it.
    ends: dict[int, int] = {}
    for index in reversed(range(len(nodes))):
        node = nodes[index]
        if isinstance(node, Leaf):
            ends[index] = index + 1
        else:
            right = ends[index + 1]
            nodes[index] = Branch(node.feature, node.threshold, index + 1, right)
            ends[index] = ends[right]
    return DispatcherSpec(arity, tuple(nodes))


class TestOnePassRenderer:
    @pytest.mark.parametrize("template", [DEFAULT_TEMPLATE, PYTHON_TEMPLATE], ids=["c", "python"])
    def test_trees_render_byte_identically_to_the_recursive_renderer(self, template):
        sizes = []
        for seed in range(60):
            spec = random_tree(seed)
            assert serialize(deserialize(serialize(spec))) == serialize(spec)
            rendered = render_template(spec, template)
            assert rendered == recursive_render(spec, template), f"seed {seed}"
            sizes.append(len(spec.nodes))
        assert min(sizes) == 1 and max(sizes) > 100

    def test_python_rendering_runs_as_python(self):
        for seed in range(20):
            spec = random_tree(seed)
            scope: dict = {}
            exec(render_template(spec, PYTHON_TEMPLATE), scope)
            rng = Rng(seed)
            for _ in range(50):
                x = tuple(rng.uniform(-60, 60) * 10.0 ** rng.randint(-8, 8) for _ in range(3))
                assert scope["select_version"](x) == eval_dispatcher(spec, x)[0]

    @pytest.mark.parametrize("rules,conditions", [(2, 2), (5, 2), (12, 3)])
    def test_rule_list_rendering_runs_as_python(self, rules, conditions):
        for model in (TestRulesLowering().rules_model(), random_rules(rules, conditions, 2, seed=rules)):
            spec = compile_dispatcher(model)
            scope: dict = {}
            exec(render_template(spec, PYTHON_TEMPLATE), scope)
            rng = Rng(rules)
            for _ in range(200):
                x = tuple(rng.uniform(-1, 11) for _ in range(model.arity))
                assert scope["select_version"](x) == predict_rules(model, x)[0]

    def test_empty_fragment_fills_exactly_the_sides_a_template_without_it_leaves_blank(self):
        without = PYTHON_TEMPLATE.replace("{{EMPTY}}\npass\n{{END}}\n", "")
        spec = compile_dispatcher(random_rules(5, 2, 2, seed=5))
        blank = render_template(spec, without)
        assert re.search(r"(?m)^ +$", blank)  # a side left empty for a fall-through
        assert render_template(spec, PYTHON_TEMPLATE) == re.sub(r"(?m)^( +)$", r"\1pass", blank)

    def test_two_rule_list_renders_as_a_decision_list(self):
        rendered = render_template(compile_dispatcher(TestRulesLowering().rules_model()))
        assert rendered == (
            "int select_version(const double *x) {\n"
            "    if (x[0] <= 3) {\n"
            "        return 1;\n"
            "    } else {\n"
            "        if (x[0] <= 6) {\n"
            "            \n"  # x <= 6 fails rule 1: fall out to the default
            "        } else {\n"
            "            if (x[0] <= 7) {\n"
            "                return 2;\n"
            "            } else {\n"
            "                \n"
            "            }\n"
            "        }\n"
            "        return 9;\n"  # the shared default, written once
            "    }\n"
            "}\n"
        )

    @pytest.mark.parametrize("branches", [200, 400, 800, 1600])
    def test_chain_lines_grow_linearly(self, branches):
        spec = deserialize(dispatcher_text(chain_node_lines(branches)))
        assert len(render_template(spec).splitlines()) == 4 * branches + 3

    @pytest.mark.parametrize("rules", [10, 20, 40, 80])
    def test_rule_list_lines_grow_linearly(self, rules):
        spec = compile_dispatcher(random_rules(rules, 3, 3, seed=rules))
        lines = render_template(spec).splitlines()
        assert len(lines) <= 5 * len(spec.nodes) + 2
        assert sum(line.strip().startswith("if (") for line in lines) == rules * 3

    def test_forty_rules_of_three_conditions_render_and_agree(self):
        model = random_rules(40, 3, 3, seed=40)
        rendered = render_template(compile_dispatcher(model))
        assert rendered.count("return ") == 40 + 1
        rng = Rng(4040)
        for _ in range(300):
            x = tuple(rng.uniform(-1, 11) for _ in range(3))
            assert interpret_rendered(rendered, x) == predict_rules(model, x)[0]

    def test_diamond_writes_each_level_once_and_agrees(self):
        spec = deserialize(dispatcher_text(diamond_lines(20)))
        rendered = render_template(spec)
        assert rendered.count("if (") == 20 and rendered.count("return ") == 1
        for x in (-1.0, 0.0, 0.5, 7.0, 19.0, 19.5, 20.0, 1e9):
            assert interpret_rendered(rendered, (x,)) == eval_dispatcher(spec, (x,))[0]

    @pytest.mark.parametrize(
        "nodes",
        [
            # the shared leaf 2 is reached from both subtrees of the root
            (Branch(0, 5.0, 1, 4), Branch(0, 2.0, 2, 3), Leaf(7), Leaf(1),
             Branch(0, 8.0, 2, 5), Leaf(3)),
            # branch 2 reaches the root's waiting leaf 5 and a new shared leaf 3
            (Branch(0, 5.0, 1, 5), Branch(0, 2.0, 2, 4), Branch(0, 1.0, 3, 5), Leaf(1),
             Branch(0, 3.0, 3, 6), Leaf(7), Leaf(3)),
        ],
        ids=["siblings", "not-innermost"],
    )
    def test_sharing_that_cannot_be_written_once_is_template_error(self, nodes):
        spec = DispatcherSpec(1, nodes)
        assert spec.depth >= 2  # a valid, acyclic document
        with pytest.raises(DispatchError) as exc:
            render_template(spec)
        assert exc.value.category == "template error"
