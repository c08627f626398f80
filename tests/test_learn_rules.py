"""Ordered rule-list learning by sequential covering."""

import math
import random

import pytest

from mvkit import LearnError, ModelIOError, RuleConfig, modelio, predict_rules, train_rule_list
from mvkit.learners import LabeledSample
from mvkit.learners.rules import Condition, Rule, RuleListModel
from mvkit.rng import Rng

SEPARABLE = [
    LabeledSample((2.0,), 1),
    LabeledSample((4.0,), 1),
    LabeledSample((8.0,), 2),
    LabeledSample((10.0,), 2),
]


class TestTraining:
    def test_separable_data_learns_one_rule_plus_default(self):
        model = train_rule_list(SEPARABLE, RuleConfig(min_cover=1))
        assert len(model.rules) == 1
        rule = model.rules[0]
        assert rule.conditions == (Condition(0, "le", 6.0),)
        assert model.default_label == 2
        assert predict_rules(model, (3.0,))[0] == 1
        assert predict_rules(model, (9.0,))[0] == 2

    def test_minority_class_is_covered_first(self):
        samples = [LabeledSample((float(i),), 1 if i < 8 else 2) for i in range(10)]
        model = train_rule_list(samples, RuleConfig(min_cover=1))
        assert model.rules[0].label == 2

    def test_single_class_data_has_no_rules(self):
        model = train_rule_list([LabeledSample((1.0,), 4), LabeledSample((2.0,), 4)])
        assert model.rules == ()
        assert model.default_label == 4
        assert predict_rules(model, (99.0,)) == (4, 0)

    def test_min_cover_blocks_tiny_rules(self):
        # the lone class-2 point cannot support a rule at min_cover=2, so
        # class 2 survives only as the default of the uncovered residue
        samples = [LabeledSample((float(i),), 1) for i in range(6)]
        samples.append(LabeledSample((9.0,), 2))
        model = train_rule_list(samples, RuleConfig(min_cover=2))
        assert all(r.label != 2 for r in model.rules)
        assert model.default_label == 2
        assert predict_rules(model, (2.0,))[0] == 1
        assert predict_rules(model, (9.0,))[0] == 2

    def test_interleaved_labels_defeat_covering(self):
        # alternating labels: the only pure half-lines are singletons,
        # which min_cover=2 rejects, so training stops with no rules
        samples = [LabeledSample((float(i),), 1 + i % 2) for i in range(8)]
        strict = train_rule_list(samples, RuleConfig(min_cover=2, min_precision=0.9))
        assert strict.rules == ()
        assert strict.default_label == 1

    def test_boundary_is_inclusive_left(self):
        model = train_rule_list(SEPARABLE, RuleConfig(min_cover=1))
        assert predict_rules(model, (6.0,))[0] == 1

    def test_two_feature_band_needs_two_conditions(self):
        samples = []
        for x in range(1, 9):
            for y in range(1, 9):
                inside = 3 <= x <= 5
                samples.append(LabeledSample((float(x), float(y)), 2 if inside else 1))
        model = train_rule_list(samples, RuleConfig(min_cover=1))
        band = [r for r in model.rules if r.label == 2]
        assert band and len(band[0].conditions) == 2
        assert predict_rules(model, (4.0, 4.0))[0] == 2
        assert predict_rules(model, (6.0, 4.0))[0] == 1

    def test_rejects_empty_input(self):
        with pytest.raises(LearnError):
            train_rule_list([])

    def test_training_is_deterministic(self):
        rng = Rng(5)
        samples = [
            LabeledSample((rng.uniform(0, 10), rng.uniform(0, 10)), rng.randint(1, 3))
            for _ in range(50)
        ]
        a = train_rule_list(samples)
        b = train_rule_list(samples)
        assert a.rules == b.rules and a.default_label == b.default_label


class TestPrediction:
    def test_comparisons_count_conditions_evaluated(self):
        model = RuleListModel(
            rules=(
                Rule((Condition(0, "le", 3.0),), 1),
                Rule((Condition(0, "gt", 6.0), Condition(0, "le", 7.0)), 2),
            ),
            default_label=9,
            arity=1,
            config=RuleConfig(),
        )
        # first rule matches: one comparison
        assert predict_rules(model, (2.0,)) == (1, 1)
        # first fails (1), second evaluates both (2)
        assert predict_rules(model, (6.5,)) == (2, 3)
        # first fails (1), second fails at first condition (1) -> default
        assert predict_rules(model, (5.0,)) == (9, 2)

    def test_predict_checks_arity(self):
        model = train_rule_list(SEPARABLE, RuleConfig(min_cover=1))
        with pytest.raises(LearnError):
            predict_rules(model, (1.0, 2.0))


class TestValidByConstruction:
    def test_an_op_other_than_le_or_gt_is_refused(self):
        for op in ("lt", "LE", "<=", ""):
            with pytest.raises(LearnError) as exc:
                Condition(0, op, 0.5)
            assert exc.value.category == "invalid rule"
            assert exc.value.message == f"condition op must be 'le' or 'gt', got {op!r}"

    def test_a_nan_threshold_is_refused(self):
        for op in ("le", "gt"):
            with pytest.raises(LearnError) as exc:
                Condition(0, op, math.nan)
            assert (exc.value.category, exc.value.message) == ("invalid rule", "condition threshold is NaN")
        model = RuleListModel((Rule((Condition(0, "le", 0.5),), 1),), 0, 1, RuleConfig())
        with pytest.raises(ModelIOError) as exc:
            modelio.loads(modelio.dumps(model).replace(" 0.5", " nan"))
        assert (exc.value.category, exc.value.message) == ("parse error", "line 2: malformed rule 'R 1 1 0 le nan'")

    def test_gt_reads_not_le_so_a_nan_feature_meets_it(self):
        # The dispatcher and the rendered source send NaN right at every "x <= t"; a rule reads it the same way.
        for x, le, gt in [(0.5, True, False), (0.6, False, True), (math.nan, False, True),
                          (-math.inf, True, False), (math.inf, False, True)]:
            assert Condition(0, "le", 0.5).holds((x,)) is le, x
            assert Condition(0, "gt", 0.5).holds((x,)) is gt, x
        assert Condition(0, "gt", math.inf).holds((math.nan,)) and not Condition(0, "gt", math.inf).holds((math.inf,))

    def test_a_condition_feature_outside_the_arity_is_refused(self):
        for feature in (2, 1, -1):
            with pytest.raises(LearnError) as exc:
                RuleListModel((Rule((Condition(feature, "le", 0.5),), 1),), 0, 1, RuleConfig())
            assert exc.value.category == "invalid rule"
            assert exc.value.message == f"condition feature {feature} outside arity 1"

    def test_a_document_with_an_unknown_op_is_a_malformed_rule(self):
        model = RuleListModel((Rule((Condition(0, "le", 0.5),), 1),), 0, 1, RuleConfig())
        text = modelio.dumps(model).replace(" le ", " lt ")
        with pytest.raises(ModelIOError) as exc:
            modelio.loads(text)
        assert (exc.value.category, exc.value.message) == ("parse error", "line 2: malformed rule 'R 1 1 0 lt 0.5'")

    def test_every_hand_built_rule_list_that_constructs_survives_dumps_and_loads(self):
        built = refused = 0
        ops = ("le", "gt", "le", "gt", "lt")  # one in five is refused
        for seed in range(600):
            rng = random.Random(seed)
            arity = rng.randint(1, 3)
            try:
                rules = tuple(
                    Rule(
                        tuple(
                            Condition(rng.randint(-1, arity), rng.choice(ops), rng.uniform(-5, 5))
                            for _ in range(rng.randint(0, 2))
                        ),
                        rng.randint(1, 4),
                    )
                    for _ in range(rng.randint(0, 3))
                )
                model = RuleListModel(rules, rng.randint(0, 4), arity, RuleConfig())
            except LearnError as exc:
                assert exc.category == "invalid rule"
                refused += 1
                continue
            assert modelio.loads(modelio.dumps(model)) == model, f"seed {seed}"
            predict_rules(model, tuple(rng.uniform(-5, 5) for _ in range(arity)))
            built += 1
        assert min(built, refused) >= 100
