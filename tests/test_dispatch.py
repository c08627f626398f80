"""Dispatcher compilation, the text format, templates, and the interpreter."""

import functools
import itertools
import math
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
from mvkit.dispatch import _INVALID, BOX_BUDGET, FRAGMENT_NAMES, UNUSED, Branch, Leaf, _parse_template
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

    def test_equal_cost_splits_go_to_the_lowest_feature_then_threshold(self):
        # Both cases cost 6 and 5 comparisons over their cells whichever test comes first.
        two_features = RuleListModel((Rule((Condition(1, LE, 1.0), Condition(0, LE, 1.0)), 1),), 9, 2, RuleConfig())
        assert serialize(compile_dispatcher(two_features)) == (
            "MVDISPATCH v1; arity=2; nodes=4\nB 0 1 1 3\nB 1 1 2 3\nL 1\nL 9\n"
        )
        two_thresholds = RuleListModel((Rule((Condition(0, LE, 2.0), Condition(0, GT, 1.0)), 1),), 9, 1, RuleConfig())
        assert serialize(compile_dispatcher(two_thresholds)) == (
            "MVDISPATCH v1; arity=1; nodes=4\nB 0 1 1 2\nL 9\nB 0 2 3 1\nL 1\n"
        )

    def test_a_tree_with_more_nodes_than_the_chain_ships_the_chain(self):
        # Both failures of rule 0 share rule 1's test in the chain: 6 nodes. The cheapest tree makes as many
        # comparisons over the 8 cells, 18, but repeats that test: 7 nodes.
        model = RuleListModel(
            (Rule((Condition(2, LE, 1.5), Condition(1, LE, 2.5)), 2), Rule((Condition(0, GT, 2.5),), 1)), 0, 3, RuleConfig()
        )
        spec, tree = compile_dispatcher(model), cheapest_tree(model)
        assert serialize(spec) == serialize(chain_compile_rules(model))
        assert (len(spec.nodes), cell_cost(spec, model)) == (6, (18, 3))
        assert (len(tree.nodes), cell_cost(tree, model)) == (7, (18, 4))

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
    """Past the box budget, every failure edge of a rule points at the one entry of the next rule."""

    def test_five_rules_of_two_conditions_take_sixteen_nodes(self):
        model = random_rules(5, 2, 5, seed=0)
        assert grid_boxes(model) > BOX_BUDGET
        assert len(compile_dispatcher(model).nodes) == 5 * (2 + 1) + 1

    def test_forty_rules_of_three_conditions_agree_everywhere(self):
        model = random_rules(40, 3, 3, seed=40)
        assert grid_boxes(model) > BOX_BUDGET
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
        # Cells (-inf, 3], (3, 6], (6, 7], (7, inf) pick 1, 9, 2, 9: splitting at 6 first costs 8 comparisons
        # over the four cells, splitting at 3 or 7 first costs 9, and the chain costs 10.
        spec = compile_dispatcher(TestRulesLowering().rules_model())
        assert serialize(spec) == (
            "MVDISPATCH v1; arity=1; nodes=6\n"
            "B 0 6 1 4\n"
            "B 0 3 2 3\n"  # x <= 3 returns 1, else the default
            "L 1\n"
            "L 9\n"  # the default, one leaf for both branches that reach it
            "B 0 7 5 3\n"  # x <= 7 returns 2, else the default
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


# --- oracle: the rule chain that the grid search replaced below the budget, verbatim ---


def chain_compile_rules(model: RuleListModel) -> DispatcherSpec:
    """Each rule becomes a chain of branches ending at its label leaf, built
    back to front after the trailing rules that conclude the default label
    are dropped. A rule whose first p conditions equal the next rule's
    makes that rule's copies of them unreachable: its failure at condition
    j < p goes where the next rule's failure at j goes, and a later one to
    the next rule's condition p (or its leaf)."""
    rules = list(model.rules)
    while rules and rules[-1].label == model.default_label:
        rules.pop()
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
    return DispatcherSpec(model.arity, canonical(nodes, at[0], model.arity, _INVALID)[0])


# --- the threshold grid of the rules a dispatcher keeps ---


def kept_axes(model: RuleListModel) -> dict[int, list[float]]:
    """Each feature that a rule before the default-label tail tests, with its sorted thresholds."""
    rules = list(model.rules)
    while rules and rules[-1].label == model.default_label:
        rules.pop()
    axes: dict[int, set[float]] = {}
    for rule in rules:
        for cond in rule.conditions:
            axes.setdefault(cond.feature, set()).add(cond.threshold)
    return {f: sorted(axes[f]) for f in sorted(axes)}


def grid_boxes(model: RuleListModel) -> int:
    """Sub-boxes of the kept grid: per tested feature, the intervals of its cells."""
    return math.prod((len(t) + 1) * (len(t) + 2) // 2 for t in kept_axes(model).values())


def cell_points(model: RuleListModel) -> list[tuple[float, ...]]:
    """One point per cell of the kept grid: on each tested feature every threshold, then NaN, which every
    comparison sends right, so it lies above the highest threshold even when that is inf; 0.0 elsewhere."""
    axes = kept_axes(model)
    return list(itertools.product(*([*axes[f], math.nan] if f in axes else [0.0] for f in range(model.arity))))


def cheapest_tree(model: RuleListModel) -> DispatcherSpec:
    """The tree that picks ``predict_rules``' version on every cell of the kept grid at the fewest comparisons
    summed over the cells, then the fewest branches, then the lowest (feature, threshold) split, with one leaf
    per version: every split of every sub-box, by recursion."""
    axes = kept_axes(model)
    features = list(axes)
    cells = list(itertools.product(*(range(len(axes[f]) + 1) for f in features)))
    version = dict(zip(cells, (predict_rules(model, x)[0] for x in cell_points(model))))

    @functools.cache
    def best(box: tuple[tuple[int, int], ...]) -> tuple[int, int, tuple | int]:
        """(comparisons, branches, tree): a tree is a version or (feature, threshold, left tree, right tree)."""
        inside = list(itertools.product(*(range(lo, hi + 1) for lo, hi in box)))
        if len({version[c] for c in inside}) == 1:
            return 0, 0, version[inside[0]]
        options = []
        for k, (lo, hi) in enumerate(box):
            for j in range(lo, hi):
                left, right = best(box[:k] + ((lo, j),) + box[k + 1:]), best(box[:k] + ((j + 1, hi),) + box[k + 1:])
                tree = (features[k], axes[features[k]][j], left[2], right[2])
                options.append((len(inside) + left[0] + right[0], 1 + left[1] + right[1], k, j, tree))
        cost, branches, _, _, tree = min(options)  # (k, j) tell every option apart, so trees are never compared
        return cost, branches, tree

    nodes: list[Node] = []
    leaves: dict[int, int] = {}

    def add(tree) -> int:
        if not isinstance(tree, tuple):
            if tree not in leaves:
                leaves[tree] = len(nodes)
                nodes.append(Leaf(tree))
            return leaves[tree]
        nodes.append(None)
        at = len(nodes) - 1
        nodes[at] = Branch(tree[0], tree[1], add(tree[2]), add(tree[3]))
        return at

    add(best(tuple((0, len(t)) for t in axes.values()))[2])
    return DispatcherSpec(model.arity, tuple(nodes))


def cell_cost(spec: DispatcherSpec, model: RuleListModel) -> tuple[int, int]:
    """(comparisons summed over the kept grid's cells, branches) of a dispatcher."""
    return sum(eval_dispatcher(spec, x)[1] for x in cell_points(model)), sum(isinstance(n, Branch) for n in spec.nodes)


def wide_rules(seed: int) -> RuleListModel:
    """Eight to sixteen rules of zero to three conditions on arity ``2 + seed % 3``, thresholds often repeated."""
    rng = random.Random(seed)
    arity = 2 + seed % 3
    rules = tuple(
        Rule(
            tuple(
                Condition(rng.randrange(arity), rng.choice((LE, GT)), rng.choice((0.5, 1.5, rng.uniform(-5, 5))))
                for _ in range(rng.choice((0, 1, 2, 3, 3)))
            ),
            rng.randint(1, 5),
        )
        for _ in range(rng.randint(8, 16))
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
    """Past the box budget the chain ships: the reverse lowering's bytes where nothing is shared or dropped,
    elsewhere the same picks, never dearer; and always the bytes of the chain kept above."""
    seen = {"a rule with no conditions before the last": 0, "gt first": 0, "rewritten": 0, "past the budget": 0}
    arities = set()
    for seed in range(3000):
        model = wide_rules(seed)
        if grid_boxes(model) <= BOX_BUDGET:
            continue
        spec, oracle = compile_dispatcher(model), oracle_compile_rules(model)
        assert serialize(spec) == serialize(chain_compile_rules(model)), f"seed {seed}"
        if not (ends_in_the_default(model) or opens_like_the_rule_before(model)):
            assert serialize(spec) == serialize(oracle), f"seed {seed}"
        else:
            seen["rewritten"] += 1
            assert len(spec.nodes) <= len(oracle.nodes), f"seed {seed}"
            for x in threshold_grid(model):
                (got, cost), (want, oracle_cost) = eval_dispatcher(spec, x), eval_dispatcher(oracle, x)
                assert got == want and cost <= oracle_cost, f"seed {seed} at {x}"
        arities.add(model.arity)
        seen["past the budget"] += 1
        seen["a rule with no conditions before the last"] += any(not r.conditions for r in model.rules[:-1])
        seen["gt first"] += any(r.conditions[:1] and r.conditions[0].op == GT for r in model.rules)
    assert arities == {2, 3, 4}
    assert min(seen.values()) >= 300, seen


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


# Thresholds at -inf and inf put cells at -inf, inf and NaN (above inf); feature 2 is tested by one rule only.
INFINITE_RULES = RuleListModel((
    Rule((Condition(0, LE, -math.inf),), 1),
    Rule((Condition(0, GT, math.inf),), 2),
    Rule((Condition(2, GT, 0.5), Condition(0, LE, math.inf)), 3),
    Rule((Condition(0, GT, 1.0),), 4),
), 0, 3, RuleConfig())


def test_rule_lists_compile_to_the_cheapest_tree_that_picks_every_cells_version():
    """Within the budget: every reading picks ``predict_rules``' version on every cell and at every threshold,
    with no more nodes and no more comparisons summed over the cells than the chain; the dispatcher is
    the cheapest tree the recursion over sub-boxes finds, unless that has more nodes than the chain."""
    seen = {"shares a condition": 0, "drops a default tail": 0, "20 rules": 0, "4 conditions": 0}
    arities = set()
    for seed, model in enumerate([*map(repeated_rules, range(3000)), INFINITE_RULES]):  # seed 3000 is the hand-built list
        assert grid_boxes(model) <= BOX_BUDGET
        spec, chain = compile_dispatcher(model), chain_compile_rules(model)
        rendered = render_template(spec)
        scope: dict = {}
        exec(render_template(spec, PYTHON_TEMPLATE), scope)
        infinities = [(v,) * model.arity for v in (-math.inf, math.inf)]
        for x in cell_points(model) + threshold_grid(model) + infinities:
            want = predict_rules(model, x)[0]
            assert eval_dispatcher(spec, x)[0] == want, f"seed {seed} at {x}"
            assert interpret_rendered(rendered, x) == want, f"seed {seed} at {x}"
            assert scope["select_version"](x) == want, f"seed {seed} at {x}"
        assert len(spec.nodes) <= len(chain.nodes), f"seed {seed}"
        assert cell_cost(spec, model)[0] <= cell_cost(chain, model)[0], f"seed {seed}"
        tree = cheapest_tree(model)
        assert serialize(spec) == serialize(tree if len(tree.nodes) <= len(chain.nodes) else chain), f"seed {seed}"
        arities.add(model.arity)
        seen["shares a condition"] += opens_like_the_rule_before(model)
        seen["drops a default tail"] += ends_in_the_default(model)
        seen["20 rules"] += len(model.rules) == 20
        seen["4 conditions"] += any(len(r.conditions) == 4 for r in model.rules)
    assert arities == {1, 2, 3}
    assert min(seen.values()) >= 100, seen


def test_a_threshold_that_never_changes_the_pick_is_never_tested():
    # x0 <= 3 and x1 > 4 conclude what x0 <= 5 and x1 > 2 already do, so the tree tests only 5 and 2.
    model = RuleListModel((
        Rule((Condition(0, LE, 3.0),), 1),
        Rule((Condition(0, LE, 5.0),), 1),
        Rule((Condition(1, GT, 2.0),), 2),
        Rule((Condition(1, GT, 4.0),), 2),
    ), 0, 2, RuleConfig())
    assert serialize(compile_dispatcher(model)).splitlines()[1:] == ["B 0 5 1 2", "L 1", "B 1 2 3 4", "L 0", "L 2"]


QUICK_START_RULES_GEN = [
    "gen", "--versions", "5", "--datasets", "160", "--features", "2", "--regions", "4", "--seed", "21",
    "--feature-range", "1,12", "--test-datasets", "80", "--noise-sigma", "0.1", "--test-seed", "77",
]


def quick_start_rule_list(tmp_path, monkeypatch) -> RuleListModel:
    monkeypatch.chdir(tmp_path)
    assert main([*QUICK_START_RULES_GEN, "--out-dir", "scen"]) == 0
    assert main(["select", "--scenario", "scen", "--max-versions", "4", "--out", "sel.rep"]) == 0
    assert main(["train", "--scenario", "scen", "--selection", "sel.rep", "--algorithm", "rules", "--out", "model.mv"]) == 0
    return loads(Path("model.mv").read_text(encoding="utf-8"))


def test_quick_start_rule_list_at_noise_0_1_takes_13_nodes_and_212_comparisons(tmp_path, monkeypatch):
    model = quick_start_rule_list(tmp_path, monkeypatch)
    spec, chain = compile_dispatcher(model), chain_compile_rules(model)
    test = load_datasets("scen/test/datasets.csv")
    assert (len(model.rules), len(spec.nodes), spec.byte_size, len(test)) == (12, 13, 162, 80)
    assert sum(eval_dispatcher(spec, d.features)[1] for d in test) == 212
    assert (len(chain.nodes), sum(eval_dispatcher(chain, d.features)[1] for d in test)) == (17, 283)
    assert [eval_dispatcher(spec, d.features)[0] for d in test] == [predict_rules(model, d.features)[0] for d in test]


def compile_work(model: RuleListModel, monkeypatch) -> tuple[int, int, int]:
    """(``canonical`` walks, ``DispatcherSpec`` constructions, ``predict_rules`` calls) that compiling ``model`` takes."""
    counts = [0, 0, 0]
    walk, post_init, predict = canonical, DispatcherSpec.__post_init__, predict_rules

    def counted_walk(*args):
        counts[0] += 1
        return walk(*args)

    def counted_post_init(self):
        counts[1] += 1
        post_init(self)

    def counted_predict(*args):
        counts[2] += 1
        return predict(*args)

    with monkeypatch.context() as patch:
        patch.setattr("mvkit.dispatch.canonical", counted_walk)
        patch.setattr(DispatcherSpec, "__post_init__", counted_post_init)
        patch.setattr("mvkit.learners.rules.predict_rules", counted_predict)
        compile_dispatcher(model)
    return counts[0], counts[1], counts[2]


def test_a_rule_list_becomes_one_dispatcher_whichever_lowering_ships(tmp_path, monkeypatch):
    # In budget the grid tree is built canonical: the chain's walk and the shipped dispatcher's are the only two,
    # and the search reads each cell's version once. Past the budget no cell is read.
    model = quick_start_rule_list(tmp_path, monkeypatch)
    assert compile_work(model, monkeypatch) == (2, 1, len(cell_points(model)))
    over = random_rules(40, 3, 3, seed=40)
    assert grid_boxes(over) > BOX_BUDGET
    assert compile_work(over, monkeypatch) == (2, 1, 0)


def test_a_nan_feature_gets_the_same_version_from_every_reading(tmp_path, monkeypatch):
    # A NaN fails every "x <= t", so it meets every "gt" condition and takes every right branch.
    model = quick_start_rule_list(tmp_path, monkeypatch)
    spec = compile_dispatcher(model)
    scope: dict = {}
    exec(render_template(spec, PYTHON_TEMPLATE), scope)
    for x in [(math.nan, 3.0), (3.0, math.nan), (math.nan, math.nan), (math.nan, -math.inf), (math.inf, math.nan)]:
        want = predict_rules(model, x)[0]
        assert eval_dispatcher(spec, x)[0] == want, x
        assert interpret_rendered(render_template(spec), x) == want, x
        assert scope["select_version"](x) == want, x
    assert predict_rules(model, (math.nan, 3.0))[0] == 1


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

    def test_an_infinite_threshold_renders_as_a_c_constant_expression(self):
        spec = DispatcherSpec(1, (Branch(0, -math.inf, 1, 2), Leaf(1), Branch(0, math.inf, 3, 4), Leaf(2), Leaf(3)))
        rendered = render_template(spec)
        assert "if (x[0] <= (-1e308 * 10)) {" in rendered and "if (x[0] <= (1e308 * 10)) {" in rendered
        assert "inf" not in rendered
        assert "\nB 0 -inf 1 2\n" in serialize(spec) and "\nB 0 inf 3 4\n" in serialize(spec)  # MVDISPATCH keeps inf
        for x, want in [(-math.inf, 1), (-1e308, 2), (math.inf, 2), (math.nan, 3)]:
            assert interpret_rendered(rendered, (x,)) == want
        with pytest.raises(DispatchError, match="expected a threshold, got 'inf'"):
            interpret_rendered(rendered.replace("(1e308 * 10)", "inf"), (0.0,))


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
    """Expand every node under each of its parents, one recursion per level; a lone leaf gets UNUSED first."""
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

    lone = fragments[UNUSED] + "\n" if len(spec.nodes) == 1 and UNUSED in fragments else ""
    return _substitute(body, {"DISPATCH": lone + render_node(0)}) + (
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
        spec = compile_dispatcher(random_rules(5, 2, 5, seed=0))  # past the budget: a chain with shared branches
        blank = render_template(spec, without)
        assert re.search(r"(?m)^ +$", blank)  # a side left empty for a fall-through
        assert render_template(spec, PYTHON_TEMPLATE) == re.sub(r"(?m)^( +)$", r"\1pass", blank)

    def test_two_rule_list_renders_its_shared_default_in_place(self):
        rendered = render_template(compile_dispatcher(TestRulesLowering().rules_model()))
        assert rendered == (
            "int select_version(const double *x) {\n"
            "    if (x[0] <= 6) {\n"
            "        if (x[0] <= 3) {\n"
            "            return 1;\n"
            "        } else {\n"
            "            return 9;\n"  # the one default leaf, written at each branch that reaches it
            "        }\n"
            "    } else {\n"
            "        if (x[0] <= 7) {\n"
            "            return 2;\n"
            "        } else {\n"
            "            return 9;\n"
            "        }\n"
            "    }\n"
            "}\n"
        )

    def test_a_chain_falls_out_to_the_next_rules_shared_test(self):
        model = RuleListModel(
            rules=(
                Rule((Condition(0, LE, 3.0), Condition(0, GT, 1.0)), 1),
                Rule((Condition(0, GT, 6.0), Condition(0, LE, 7.0)), 2),
            ),
            default_label=9,
            arity=1,
            config=RuleConfig(),
        )
        rendered = render_template(chain_compile_rules(model))
        assert rendered == (
            "int select_version(const double *x) {\n"
            "    if (x[0] <= 3) {\n"
            "        if (x[0] <= 1) {\n"
            "            \n"  # both failures of rule 0 fall out to rule 1's first test
            "        } else {\n"
            "            return 1;\n"
            "        }\n"
            "    } else {\n"
            "        \n"
            "    }\n"
            "    if (x[0] <= 6) {\n"
            "        return 9;\n"  # the default leaf, written in place at each branch that reaches it
            "    } else {\n"
            "        if (x[0] <= 7) {\n"
            "            return 2;\n"
            "        } else {\n"
            "            return 9;\n"
            "        }\n"
            "    }\n"
            "}\n"
        )
        for x in (0.0, 1.0, 2.0, 3.0, 5.0, 6.5, 7.0, 8.0, math.nan):
            assert interpret_rendered(rendered, (x,)) == predict_rules(model, (x,))[0]

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
        assert rendered.count("return ") == 40 + 3  # each rule's leaf, and the default at the last rule's three tests
        rng = Rng(4040)
        for _ in range(300):
            x = tuple(rng.uniform(-1, 11) for _ in range(3))
            assert interpret_rendered(rendered, x) == predict_rules(model, x)[0]

    def test_diamond_writes_each_level_once_and_agrees(self):
        spec = deserialize(dispatcher_text(diamond_lines(20)))
        rendered = render_template(spec)
        assert rendered.count("if (") == 20 and rendered.count("return ") == 2  # the leaf on both sides of the last
        for x in (-1.0, 0.0, 0.5, 7.0, 19.0, 19.5, 20.0, 1e9):
            assert interpret_rendered(rendered, (x,)) == eval_dispatcher(spec, (x,))[0]

    @pytest.mark.parametrize(
        "nodes",
        [
            # the shared branch 2 is reached from both subtrees of the root
            (Branch(0, 5.0, 1, 4), Branch(0, 2.0, 2, 3), Branch(0, 1.0, 6, 7), Leaf(1),
             Branch(0, 8.0, 2, 5), Leaf(3), Leaf(7), Leaf(8)),
            # branch 2 reaches the root's waiting branch 5 and a new shared branch 3
            (Branch(0, 5.0, 1, 5), Branch(0, 2.0, 2, 4), Branch(0, 1.0, 3, 5), Branch(0, 0.5, 7, 8),
             Branch(0, 3.0, 3, 6), Branch(0, 9.0, 8, 7), Leaf(7), Leaf(1), Leaf(2)),
        ],
        ids=["siblings", "not-innermost"],
    )
    def test_sharing_that_cannot_be_written_once_is_template_error(self, nodes):
        spec = DispatcherSpec(1, nodes)
        assert spec.depth >= 2  # a valid, acyclic document
        with pytest.raises(DispatchError) as exc:
            render_template(spec)
        assert exc.value.category == "template error"
