"""Adaptive-binary simulation over held-out scenarios."""

from dataclasses import replace

import numpy as np
import pytest

from mvkit import (
    Constraints,
    DispatchError,
    LearnError,
    LearnerSpec,
    Scenario,
    compile_dispatcher,
    generate,
    generate_test,
    greedy_select,
    make_dc_labels,
    simulate,
    speedups,
    train_ppm_models,
    train_tree_classifier,
)
from mvkit.dispatch import Branch, DispatcherSpec, Leaf

from conftest import PLANTED_TEST_SEED


def planted_pipeline(planted):
    cfg, scenario, _ = planted
    matrix = speedups(scenario)
    result = greedy_select(
        matrix, scenario.code_sizes(), scenario.baseline_binary_size, Constraints(max_versions=4)
    )
    samples = make_dc_labels(scenario, matrix, set(result.selected))
    model = train_tree_classifier(samples)
    spec = compile_dispatcher(model)
    test_scenario, _ = generate_test(cfg, PLANTED_TEST_SEED, 160)
    return result, spec, test_scenario


class TestReferenceSelectors:
    def test_oracle_hits_representative_bound(self, toy_scenario):
        rep = simulate(toy_scenario, "oracle", (1, 2))
        assert rep.fraction_of_representative_oracle == 1.0
        assert rep.mispick_rate == 0.0
        assert rep.mean_comparisons == 0.0
        assert rep.selector_kind == "oracle"

    def test_baseline_geomean_is_one(self, toy_scenario):
        rep = simulate(toy_scenario, "baseline", (1, 2))
        assert rep.geomean_realized == pytest.approx(1.0, abs=1e-12)
        assert rep.selector_kind == "baseline"

    def test_unknown_selector_string(self, toy_scenario):
        with pytest.raises(DispatchError) as exc:
            simulate(toy_scenario, "fastest", (1, 2))
        assert exc.value.category == "unknown selector"

    def test_callable_selector(self, toy_scenario):
        rep = simulate(toy_scenario, lambda x: 1, (1, 2))
        assert rep.selector_kind == "callable"
        assert [o.chosen for o in rep.outcomes] == [1, 1, 1]
        # v1 doubles d1 only: geomean is 2^(1/3)
        assert rep.geomean_realized == pytest.approx(2 ** (1 / 3), abs=1e-12)

    def test_oracle_full_vs_representative_gap(self, toy_scenario):
        # restricted to {v3}, the oracle-of-set trails the full oracle
        rep = simulate(toy_scenario, "oracle", (3,))
        assert rep.fraction_of_representative_oracle == 1.0
        assert rep.fraction_of_full_oracle < 1.0


class TestPlantedPipeline:
    def test_noise_free_dispatcher_is_perfect(self, planted):
        result, spec, test_scenario = planted_pipeline(planted)
        rep = simulate(test_scenario, spec, result.selected)
        assert rep.fraction_of_representative_oracle == 1.0
        assert rep.fraction_of_full_oracle == 1.0
        assert rep.mispick_rate == 0.0
        assert rep.selector_kind == "dispatcher"

    def test_ppm_selector_on_planted(self, planted):
        cfg, scenario, _ = planted
        matrix = speedups(scenario)
        result = greedy_select(
            matrix,
            scenario.code_sizes(),
            scenario.baseline_binary_size,
            Constraints(max_versions=4),
        )
        models = train_ppm_models(LearnerSpec("regtree"), scenario, matrix, result.selected)
        test_scenario, _ = generate_test(cfg, PLANTED_TEST_SEED, 160)
        rep = simulate(test_scenario, models, result.selected)
        assert rep.selector_kind == "ppm"
        assert rep.mean_comparisons == 0.0
        assert rep.selector_growth == 0.0
        assert rep.fraction_of_representative_oracle > 0.9

    def test_ppm_bundle_refuses_a_classifier_spec(self, planted):
        _, scenario, _ = planted
        with pytest.raises(LearnError) as exc:
            train_ppm_models(LearnerSpec("tree"), scenario, speedups(scenario), (1, 2))
        assert exc.value.category == "invalid config"

    def test_train_overlap_reported(self, planted):
        cfg, scenario, _ = planted
        result, spec, test_scenario = planted_pipeline(planted)
        train_ids = set(scenario.dataset_ids)
        rep = simulate(test_scenario, spec, result.selected, train_dataset_ids=train_ids)
        assert rep.train_overlap == ()
        rep2 = simulate(scenario, spec, result.selected, train_dataset_ids=train_ids)
        assert set(rep2.train_overlap) == train_ids

    def test_scale_invariance(self, planted):
        result, spec, test_scenario = planted_pipeline(planted)
        scaled = Scenario(
            versions=test_scenario.versions,
            datasets=test_scenario.datasets,
            runtimes=test_scenario.runtimes * 7.5,
        )
        a = simulate(test_scenario, spec, result.selected)
        b = simulate(scaled, spec, result.selected)
        assert a.geomean_realized == pytest.approx(b.geomean_realized, rel=1e-12)
        assert a.mispick_rate == b.mispick_rate


class TestGuards:
    def test_representative_must_exist_in_test_matrix(self, toy_scenario):
        with pytest.raises(DispatchError) as exc:
            simulate(toy_scenario, "oracle", (1, 99))
        assert exc.value.category == "unknown version"

    def test_dispatcher_leaf_outside_set_rejected(self, toy_scenario):
        stray = DispatcherSpec(feature_arity=1, nodes=(Leaf(3),))
        with pytest.raises(DispatchError) as exc:
            simulate(toy_scenario, stray, (1, 2))
        assert exc.value.category == "unknown version"

    def test_dispatcher_may_fall_back_to_baseline(self, toy_scenario):
        to_baseline = DispatcherSpec(feature_arity=1, nodes=(Leaf(0),))
        rep = simulate(toy_scenario, to_baseline, (1, 2))
        assert rep.geomean_realized == pytest.approx(1.0, abs=1e-12)

    def test_callable_pick_outside_set_rejected(self, toy_scenario):
        with pytest.raises(DispatchError) as exc:
            simulate(toy_scenario, lambda x: 3, (1, 2))
        assert exc.value.category == "unknown version"


class TestCodeGrowth:
    """Both growths are fractions of the baseline binary size (1000 in the toy)."""

    def test_dispatcher_free_growth(self, toy_scenario):
        rep = simulate(toy_scenario, "oracle", (1, 2))
        assert rep.selector_growth == 0.0
        assert rep.multiversioning_growth == pytest.approx(0.2)

    def test_selector_growth_is_bytes_over_baseline(self, toy_scenario):
        spec = DispatcherSpec(1, (Branch(0, 1.5, 1, 2), Leaf(1), Leaf(2)))
        rep = simulate(toy_scenario, spec, (1, 2, 3))
        assert rep.selector_growth == spec.byte_size / 1000
        assert rep.multiversioning_growth == pytest.approx(0.3)

    @pytest.mark.parametrize("size", [0, -5])
    def test_rejects_nonpositive_baseline(self, toy_scenario, size):
        base, *rest = toy_scenario.versions
        sc = Scenario((replace(base, code_size=size), *rest), toy_scenario.datasets, toy_scenario.runtimes)
        with pytest.raises(DispatchError) as exc:
            simulate(sc, "oracle", (1, 2))
        assert exc.value.category == "non-positive measurement"


class TestMispickAccounting:
    def test_near_tie_within_slack_is_not_a_mispick(self):
        from mvkit.scenario import DatasetRecord, Version

        versions = (
            Version(0, "b", 1000, True),
            Version(1, "v1", 100, False),
            Version(2, "v2", 100, False),
        )
        datasets = (DatasetRecord(1, (1.0,)),)
        # v1 and v2 identical on the only dataset
        runtimes = np.array([[1.0, 0.5, 0.5]])
        sc = Scenario(versions=versions, datasets=datasets, runtimes=runtimes)
        rep = simulate(sc, lambda x: 2, (1, 2))
        assert rep.mispick_rate == 0.0

    def test_strictly_worse_pick_is_a_mispick(self):
        from mvkit.scenario import DatasetRecord, Version

        versions = (
            Version(0, "b", 1000, True),
            Version(1, "v1", 100, False),
            Version(2, "v2", 100, False),
        )
        datasets = (DatasetRecord(1, (1.0,)),)
        runtimes = np.array([[1.0, 0.5, 0.8]])
        sc = Scenario(versions=versions, datasets=datasets, runtimes=runtimes)
        rep = simulate(sc, lambda x: 2, (1, 2))
        assert rep.mispick_rate == 1.0


    def test_a_repeated_dataset_id_is_scored_on_its_own_column(self):
        from mvkit.scenario import DatasetRecord, Version

        versions = (Version(0, "b", 1000, True), Version(1, "v1", 100, False))
        datasets = (DatasetRecord(1, (1.0,)), DatasetRecord(1, (2.0,)))
        sc = Scenario(versions=versions, datasets=datasets, runtimes=np.array([[4.0, 1.0], [1.0, 2.0]]))
        rep = simulate(sc, lambda x: 1, (1,))
        assert [o.realized_speedup for o in rep.outcomes] == [4.0, 0.5]
        assert rep.fraction_of_full_oracle == pytest.approx(2**-0.5, rel=1e-15)
        assert rep.mispick_rate == 0.5

class CountingIds(tuple):
    """A dataset-id tuple that counts element reads and ``index`` calls."""

    reads = 0
    index_calls = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)

    def __iter__(self):
        for item in super().__iter__():
            self.reads += 1
            yield item

    def index(self, *args):
        self.index_calls += 1
        return super().index(*args)


class TestLinearWork:
    """``simulate`` touches the dataset ids O(D) times: no ``index`` scans."""

    D = 4000

    @pytest.mark.parametrize("kind", ["dispatcher", "oracle"])
    def test_dataset_ids_are_read_a_bounded_number_of_times_each(self, kind):
        from mvkit.scenario import DatasetRecord, Version

        versions = tuple(Version(v, f"v{v}", 100 + v, v == 0) for v in range(4))
        datasets = tuple(DatasetRecord(10 * i, (float(i % 37),)) for i in range(self.D))
        runtimes = np.random.default_rng(0).uniform(0.5, 2.0, (self.D, len(versions)))
        sc = Scenario(versions=versions, datasets=datasets, runtimes=runtimes)
        ids = CountingIds(sc.dataset_ids)
        sc.__dict__["dataset_ids"] = ids  # what the cached property would hold
        selector = DispatcherSpec(1, (Branch(0, 18.0, 1, 2), Leaf(1), Leaf(2))) if kind == "dispatcher" else "oracle"
        rep = simulate(sc, selector, (1, 2), train_dataset_ids={0, 10, 7})
        assert len(rep.outcomes) == self.D
        assert rep.train_overlap == (0, 10)
        assert ids.index_calls == 0
        assert ids.reads <= 3 * self.D
