"""Report documents and model documents: rendering, parsing, stability."""

from dataclasses import replace

import pytest

from mvkit import (
    Report,
    ReportError,
    RuleConfig,
    Table,
    TreeConfig,
    parse,
    render,
    train_linear_regression,
    train_regression_tree,
    train_rule_list,
    train_tree_classifier,
)
from mvkit import modelio
from mvkit.learners import LabeledSample, RegressionSample
from mvkit.modelio import ModelIOError

from conftest import run_mvkit

FOUR = [
    LabeledSample((2.0,), 1),
    LabeledSample((4.0,), 1),
    LabeledSample((8.0,), 2),
    LabeledSample((10.0,), 2),
]

REG = [
    RegressionSample((2.0,), 0.1),
    RegressionSample((4.0,), 0.2),
    RegressionSample((8.0,), 0.9),
    RegressionSample((10.0,), 1.1),
]


SAMPLE = Report(
    "selection",
    (("selected", "1,2"), ("objective_value", 1.3862943611198906), ("n_selected", 2), ("pruned_any", True)),
    (Table("losses", ("dataset_id", "loss"), ((1, 0.0), (2, 0.25), (3, 1.0 / 3.0))),),
)


class TestReportFormat:
    def test_header_and_fields(self):
        text = render(SAMPLE)
        lines = text.splitlines()
        assert lines[0] == "MVREPORT v1; kind=selection"
        assert "selected=1,2" in lines
        assert "objective_value=1.3862943611198906" in lines
        assert "pruned_any=1" in lines

    def test_round_trip(self):
        text = render(SAMPLE)
        doc = parse(text)
        assert doc.kind == "selection"
        assert doc.get("selected") == "1,2"
        assert float(doc.get("objective_value")) == pytest.approx(1.3862943611198906)
        table = doc.table("losses")
        assert table.columns == ("dataset_id", "loss")
        assert len(table.rows) == 3

    def test_machine_mode_is_the_default_and_byte_stable(self):
        assert render(SAMPLE) == render(replace(SAMPLE), "machine")

    def test_machine_floats_round_trip_exactly(self):
        text = render(SAMPLE)
        doc = parse(text)
        loss_row = doc.table("losses").rows[2]
        assert float(loss_row[1]) == 1.0 / 3.0

    def test_human_mode_rounds(self):
        text = render(SAMPLE, "human")
        assert "objective_value=1.38629" in text
        assert "3,0.333333" in text

    def test_invalid_mode_is_refused(self):
        with pytest.raises(ReportError) as exc:
            render(SAMPLE, "fancy")
        assert exc.value.category == "invalid mode"

    def test_a_built_report_holds_raw_values_and_a_parsed_one_text(self):
        assert SAMPLE.get("objective_value") == 1.3862943611198906
        doc = parse(render(SAMPLE))
        assert doc.get("objective_value") == "1.3862943611198906"
        assert doc.get("pruned_any") == "1"
        assert doc.table("losses").rows[0] == ("1", "0.0")

    def test_missing_key_and_table_errors(self):
        doc = parse(render(SAMPLE))
        with pytest.raises(ReportError) as exc:
            doc.get("nope")
        assert exc.value.category == "missing key"
        with pytest.raises(ReportError) as exc:
            doc.table("nope")
        assert exc.value.category == "missing table"

    def test_parse_error_names_line(self):
        with pytest.raises(ReportError) as exc:
            parse("not a report\n")
        assert "line 1" in str(exc.value)

    @pytest.mark.parametrize(
        "text, where",
        [
            ("MVREPORT v1; kind=selection; x=1\nselected=1\n", "line 1: malformed MVREPORT header"),
            ("MVREPORT v1; kind=selection\nselected=1\nn_selected=1\nselected=2\n", "line 4: field 'selected' repeats"),
            ("MVREPORT v1; kind=cv\n\nk=2\n[table folds]\nfold\n0\n[end]\nk=3\n", "line 8: field 'k' repeats"),
            (
                "MVREPORT v1; kind=selection\nselected=1\n[table t]\na\n1\n[end]\n[table t]\na\n2\n[end]\n",
                "line 7: table 't' repeats",
            ),
        ],
        ids=["header-extra-attr", "field-repeated", "field-repeated-after-table", "table-repeated"],
    )
    def test_header_extras_and_repeated_fields_are_parse_errors(self, text, where):
        with pytest.raises(ReportError) as exc:
            parse(text)
        assert exc.value.category == "parse error"
        assert where in str(exc.value)

    def test_unterminated_table(self):
        text = "MVREPORT v1; kind=cv\n[table folds]\nfold,size\n0,2\n"
        with pytest.raises(ReportError):
            parse(text)


TREE_DOC = (
    "MVMODEL v1; algorithm=tree; arity=1; nodes=1; min_split=2; max_depth=64; prune=0; "
    "prune_holdout=0.2; seed=-\nL 1\n"
)
RULES_DOC = (
    "MVMODEL v1; algorithm=rules; arity=1; rules=1; min_cover=2; min_precision=0.7; seed=-\n"
    "R 1 1 0 le 5.5\nD 2\n"
)
REGTREE_DOC = (
    "MVMODEL v1; algorithm=regtree-bundle; arity=1; versions=1; min_split=4; max_depth=64; "
    "prune=0; prune_holdout=0.2; seed=-\nV 3; nodes=1\nL 1\n"
)
LINREG_DOC = "MVMODEL v1; algorithm=linreg-bundle; arity=1; versions=1\nV 3\nC 0 1\n"


class TestModelDocuments:
    @pytest.mark.parametrize(
        "text", [TREE_DOC, RULES_DOC, REGTREE_DOC, LINREG_DOC], ids=["tree", "rules", "regtree", "linreg"]
    )
    def test_unedited_documents_round_trip(self, text):
        assert modelio.dumps(modelio.loads(text)) == text

    @pytest.mark.parametrize(
        "text, where",
        [
            (TREE_DOC + "L 2\n", "line 3: trailing content"),
            (RULES_DOC + "R 1 1 0 le 5.5\n", "line 4: trailing content"),
            (RULES_DOC + "garbage\n", "line 4: trailing content"),
            (RULES_DOC.replace("D 2", "D 2 extra"), "line 3: malformed default"),
            (REGTREE_DOC + "L 2\n", "line 4: trailing content"),
            (REGTREE_DOC.replace("nodes=1", "nodes=1; whatever=9"), "line 2: malformed version header"),
            (REGTREE_DOC.replace("nodes=1", "count=1"), "line 2: malformed version header"),
            (LINREG_DOC.replace("V 3", "V 3 junk"), "line 2: malformed version line"),
            (LINREG_DOC + "C 0 1\n", "line 4: trailing content"),
            (TREE_DOC.replace("seed=-", "seed=-; bogus=1"), "line 1: unknown header attribute 'bogus'"),
            (TREE_DOC.replace("arity=1;", "arity=1; arity=2;"), "line 1: header repeats arity"),
            (RULES_DOC.replace("seed=-", "seed=-; prune=0"), "line 1: unknown header attribute 'prune'"),
            (LINREG_DOC.replace("versions=1", "versions=1; min_split=2"), "line 1: unknown header attribute 'min_split'"),
            (REGTREE_DOC.replace("seed=-", "seed=-; seed=7"), "line 1: header repeats seed"),
        ],
        ids=[
            "tree-trailing", "rules-extra-rule", "rules-garbage", "rules-default-extra",
            "regtree-trailing", "regtree-extra-attr", "regtree-renamed-attr",
            "linreg-version-extra", "linreg-trailing", "tree-header-unknown-attr",
            "tree-header-repeated-attr", "rules-header-tree-attr", "linreg-header-config-attr",
            "regtree-header-repeated-attr",
        ],
    )
    def test_extra_content_is_a_parse_error_naming_the_line(self, text, where):
        with pytest.raises(ModelIOError) as exc:
            modelio.loads(text)
        assert exc.value.category == "parse error"
        assert where in str(exc.value)

    @pytest.mark.parametrize(
        "text, where",
        [
            (REGTREE_DOC.replace("versions=1", "versions=2") + "V 3; nodes=1\nL 2\n", "line 4: version 3"),
            (LINREG_DOC.replace("versions=1", "versions=2") + "V 3\nC 5 6\n", "line 4: version 3"),
        ],
        ids=["regtree", "linreg"],
    )
    def test_a_version_listed_twice_in_a_bundle_is_a_parse_error(self, text, where):
        with pytest.raises(ModelIOError) as exc:
            modelio.loads(text)
        assert exc.value.category == "parse error"
        assert where in str(exc.value)

    @pytest.mark.parametrize(
        "text, where",
        [
            ("\n\n" + TREE_DOC.replace("L 1", "L x"), "line 4: malformed node"),
            (TREE_DOC.replace("\nL 1", "\n\n \nL 1") + "L 2\n", "line 5: trailing content"),
            (RULES_DOC.replace("\nR 1", "\n\n\nR 1") + "D 3\n", "line 6: trailing content"),
            (RULES_DOC.replace("D 2", "\nD 2 extra"), "line 4: malformed default"),
            (REGTREE_DOC.replace("\nL 1", "\n\nB 0 1.5 1 9\nL 1"), "line 4: child index out of range"),
            (REGTREE_DOC.replace("nodes=1", "nodes=2") + "\n\n", "line 6: expected 2 nodes, text ended"),
            (LINREG_DOC.replace("\nC 0 1", "\n\nC 0 x"), "line 4: malformed coefficients"),
            (LINREG_DOC.replace("\nC 0 1", "\n\nC nan 1"), "line 4: non-finite coefficient"),
            (LINREG_DOC.replace("\nC 0 1", "\n\nC 0 -inf"), "line 4: non-finite coefficient"),
            ("\n" + LINREG_DOC.replace("arity=1", "arity=0"), "line 2: arity must be >= 1"),
        ],
        ids=[
            "tree-header", "tree-node", "rules-trailing", "rules-default", "regtree-node",
            "regtree-ended", "linreg-coefficients", "linreg-nan", "linreg-inf", "linreg-header",
        ],
    )
    def test_errors_after_blank_lines_name_the_physical_line(self, text, where):
        with pytest.raises(ModelIOError) as exc:
            modelio.loads(text)
        assert exc.value.category == "parse error"
        assert where in str(exc.value)

    @pytest.mark.parametrize(
        "text, config",
        [
            ("MVMODEL v1; algorithm=tree; arity=1; nodes=1\nL 1\n", TreeConfig()),
            ("MVMODEL v1; algorithm=rules; arity=1; rules=1\nR 1 1 0 le 5.5\nD 2\n", RuleConfig()),
            ("MVMODEL v1; algorithm=regtree-bundle; arity=1; versions=1\nV 3; nodes=1\nL 1\n", TreeConfig()),
        ],
        ids=["tree", "rules", "regtree"],
    )
    def test_missing_config_pairs_take_the_dataclass_defaults(self, text, config):
        model = modelio.loads(text)
        assert (model[3] if isinstance(model, dict) else model).config == config

    @pytest.mark.parametrize(
        "text, where",
        [
            (TREE_DOC.replace("min_split=2", "min_split=x"), "line 2: bad tree config"),
            (TREE_DOC.replace("prune_holdout=0.2", "prune_holdout=2"), "line 2: bad tree config"),
            (TREE_DOC.replace("prune=0", "prune=yes"), "line 2: bad tree config"),
            (RULES_DOC.replace("seed=-", "seed="), "line 2: bad rule config"),
            (RULES_DOC.replace("min_precision=0.7", "min_precision=0"), "line 2: bad rule config"),
            (REGTREE_DOC.replace("min_split=4", "min_split=x"), "line 2: bad tree config"),
            (REGTREE_DOC.replace("seed=-", "seed="), "line 2: bad tree config"),
        ],
        ids=[
            "tree-min-split", "tree-prune-holdout", "tree-prune", "rules-seed", "rules-min-precision",
            "regtree-min-split", "regtree-seed",
        ],
    )
    def test_malformed_config_value_is_a_parse_error_naming_the_header_line(self, text, where):
        with pytest.raises(ModelIOError) as exc:
            modelio.loads("\n" + text)
        assert exc.value.category == "parse error"
        assert where in str(exc.value)

    def test_emit_on_a_malformed_config_value_exits_2(self, tmp_path):
        (tmp_path / "tree.mv").write_text(TREE_DOC.replace("min_split=2", "min_split=x"))
        r = run_mvkit("emit", "--model", "tree.mv", "--out", "disp.txt", cwd=tmp_path)
        assert r.returncode == 2, r.stderr
        assert "line 1: bad tree config" in r.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["tree.mv"]

    def test_tree_round_trip(self):
        model = train_tree_classifier(FOUR)
        text = modelio.dumps(model)
        assert text.startswith("MVMODEL v1; algorithm=tree; arity=1; nodes=3")
        again = modelio.loads(text)
        assert modelio.dumps(again) == text

    def test_tree_config_survives(self):
        model = train_tree_classifier(FOUR, TreeConfig(min_split=3, max_depth=7))
        again = modelio.loads(modelio.dumps(model))
        assert again.config.min_split == 3
        assert again.config.max_depth == 7

    def test_rules_round_trip(self):
        model = train_rule_list(FOUR, RuleConfig(min_cover=1))
        text = modelio.dumps(model)
        assert "algorithm=rules" in text
        again = modelio.loads(text)
        assert modelio.dumps(again) == text
        assert again.default_label == model.default_label

    def test_regtree_bundle_round_trip(self):
        bundle = {1: train_regression_tree(REG), 2: train_regression_tree(REG)}
        text = modelio.dumps(bundle)
        assert "algorithm=regtree-bundle" in text
        again = modelio.loads(text)
        assert modelio.dumps(again) == text
        assert set(again) == {1, 2}

    def test_linreg_bundle_round_trip(self):
        bundle = {3: train_linear_regression(REG)}
        text = modelio.dumps(bundle)
        assert "algorithm=linreg-bundle" in text
        again = modelio.loads(text)
        assert modelio.dumps(again) == text
        assert again[3].intercept == pytest.approx(bundle[3].intercept, abs=1e-15)

    def test_lone_regression_tree_rejected(self):
        with pytest.raises(ModelIOError):
            modelio.dumps(train_regression_tree(REG))

    def test_empty_bundle_rejected(self):
        with pytest.raises(ModelIOError):
            modelio.dumps({})

    def test_corrupt_document_rejected(self):
        model = train_tree_classifier(FOUR)
        text = modelio.dumps(model)
        with pytest.raises(ModelIOError) as exc:
            modelio.loads(text.replace("L 1", "L x"))
        assert exc.value.category == "parse error"
