"""Planted synthetic scenarios: structure, determinism, recoverability."""

import numpy as np
import pytest

from mvkit import (
    Constraints,
    SynthConfig,
    SynthError,
    generate,
    generate_test,
    greedy_select,
    make_dc_labels,
    save_ground_truth,
    speedups,
    validate_scenario,
)

CFG = SynthConfig(
    n_versions=5, n_datasets=100, feature_arity=2, n_regions=4, seed=42, feature_range=(1, 16)
)


class TestShapes:
    def test_counts_and_arity(self):
        scenario, truth = generate(CFG)
        assert len(scenario.versions) == 5
        assert len(scenario.datasets) == 100
        assert scenario.feature_arity == 2
        assert scenario.runtimes.shape == (100, 5)
        assert len(truth.winners_by_dataset) == 100

    def test_baseline_is_version_zero(self):
        scenario, _ = generate(CFG)
        assert scenario.baseline.id == 0
        assert scenario.baseline.is_baseline

    def test_generated_scenario_validates_clean(self):
        scenario, _ = generate(CFG)
        assert validate_scenario(scenario) == []

    def test_noisy_scenario_validates_clean(self):
        noisy = SynthConfig(
            n_versions=4, n_datasets=50, feature_arity=2, n_regions=3, seed=7, noise_sigma=0.1
        )
        scenario, _ = generate(noisy)
        assert validate_scenario(scenario) == []

    def test_features_are_integral_lattice_points(self):
        scenario, _ = generate(CFG)
        lo, hi = CFG.feature_range
        for d in scenario.datasets:
            for x in d.features:
                assert x == int(x)
                assert lo <= x <= hi


class TestPlantedStructure:
    def test_noiseless_argmax_matches_planted_winner(self):
        scenario, truth = generate(CFG)
        matrix = speedups(scenario)
        for i in range(len(scenario.datasets)):
            row = matrix.entries[matrix.row_positions(matrix.candidate_ids), i].tolist()
            best = matrix.candidate_ids[int(np.argmax(row))]
            assert best == truth.winners_by_dataset[i]

    def test_winner_is_strictly_fastest_noiseless(self):
        scenario, truth = generate(CFG)
        matrix = speedups(scenario)
        for i in range(len(scenario.datasets)):
            winner = truth.winners_by_dataset[i]
            win_speed = matrix.entries[matrix.row_positions([winner])[0], i]
            for v in matrix.candidate_ids:
                if v != winner:
                    assert matrix.entries[matrix.row_positions([v])[0], i] < win_speed

    def test_dc_labels_equal_planted_winners(self):
        scenario, truth = generate(CFG)
        matrix = speedups(scenario)
        samples = make_dc_labels(scenario, matrix, set(matrix.candidate_ids))
        assert [s.label for s in samples] == list(truth.winners_by_dataset)

    def test_greedy_with_room_covers_all_regions_losslessly(self):
        scenario, _ = generate(CFG)
        matrix = speedups(scenario)
        r = greedy_select(
            matrix,
            scenario.code_sizes(),
            scenario.baseline_binary_size,
            Constraints(max_versions=4),
        )
        assert r.max_dataset_loss == pytest.approx(0.0, abs=1e-12)

    def test_cuts_are_half_integers(self):
        _, truth = generate(CFG)
        for axis_cuts in truth.cuts:
            for c in axis_cuts:
                assert (2 * c) == int(2 * c) and c != int(c)


class TestDeterminism:
    def test_same_seed_identical_scenario(self):
        a, _ = generate(CFG)
        b, _ = generate(CFG)
        assert a.versions == b.versions
        assert a.datasets == b.datasets
        assert np.array_equal(a.runtimes, b.runtimes)

    def test_different_seed_differs(self):
        other = SynthConfig(
            n_versions=5, n_datasets=100, feature_arity=2, n_regions=4, seed=43, feature_range=(1, 16)
        )
        a, _ = generate(CFG)
        b, _ = generate(other)
        assert not np.array_equal(a.runtimes, b.runtimes)

    def test_ground_truth_file_bytes_stable(self, tmp_path):
        scenario, truth = generate(CFG)
        p1, p2 = tmp_path / "g1.csv", tmp_path / "g2.csv"
        save_ground_truth(truth, scenario, p1)
        save_ground_truth(truth, scenario, p2)
        assert p1.read_bytes() == p2.read_bytes()
        header = p1.read_text().splitlines()[0]
        assert header == "dataset_id,true_best_version_id"


class TestHeldOutGeneration:
    def test_same_structure_fresh_population(self):
        train, t_truth = generate(CFG)
        test, s_truth = generate_test(CFG, 9001, 40)
        assert len(test.datasets) == 40
        assert t_truth.cuts == s_truth.cuts
        assert t_truth.region_winners == s_truth.region_winners
        assert test.versions == train.versions

    def test_test_ids_do_not_collide_with_train(self):
        train, _ = generate(CFG)
        test, _ = generate_test(CFG, 9001, 40)
        assert not (set(d.id for d in train.datasets) & set(d.id for d in test.datasets))

    def test_test_winners_follow_planted_regions(self):
        test, truth = generate_test(CFG, 9001, 40)
        matrix = speedups(test)
        for i in range(len(test.datasets)):
            row = matrix.entries[matrix.row_positions(matrix.candidate_ids), i].tolist()
            best = matrix.candidate_ids[int(np.argmax(row))]
            assert best == truth.winners_by_dataset[i]

    @pytest.mark.parametrize("n_datasets", [0, -3])
    def test_fewer_than_one_dataset_is_refused(self, n_datasets):
        with pytest.raises(SynthError) as exc:
            generate_test(CFG, 9001, n_datasets)
        assert exc.value.category == "invalid config"
        assert f"n_datasets must be >= 1, got {n_datasets}" in str(exc.value)


class TestConfigValidation:
    def test_too_many_regions(self):
        with pytest.raises(SynthError) as exc:
            SynthConfig(n_versions=3, n_datasets=10, feature_arity=1, n_regions=3, seed=1)
        assert exc.value.category == "invalid config"

    def test_loser_range_must_sit_below_winner_range(self):
        with pytest.raises(SynthError):
            SynthConfig(
                n_versions=3,
                n_datasets=10,
                feature_arity=1,
                n_regions=2,
                seed=1,
                winner_speedup_range=(1.2, 2.0),
                loser_speedup_range=(0.9, 1.3),
            )

    def test_winner_range_must_exceed_one(self):
        with pytest.raises(SynthError):
            SynthConfig(
                n_versions=3,
                n_datasets=10,
                feature_arity=1,
                n_regions=2,
                seed=1,
                winner_speedup_range=(0.9, 2.0),
            )

    def test_needs_at_least_two_versions(self):
        with pytest.raises(SynthError):
            SynthConfig(n_versions=1, n_datasets=10, feature_arity=1, n_regions=1, seed=1)

    def test_region_capacity_bounded_by_lattice(self):
        with pytest.raises(SynthError):
            SynthConfig(
                n_versions=20,
                n_datasets=10,
                feature_arity=1,
                n_regions=19,
                seed=1,
                feature_range=(1, 4),
            )

    @pytest.mark.parametrize("hi", [10**7 + 2, 10**9])
    def test_feature_range_past_ten_million_cut_slots_is_refused(self, hi):
        # Refused when the config is built, before any draw or allocation.
        with pytest.raises(SynthError) as exc:
            SynthConfig(n_versions=5, n_datasets=10, feature_arity=2, n_regions=4, seed=1, feature_range=(1, hi))
        assert exc.value.category == "invalid config"
        assert f"feature_range spans {hi - 1} cut slots, more than 10000000" in str(exc.value)

    def test_planting_draws_are_capped_across_features(self):
        # 46,040 features x (31 cut slots + 512 per axis) = 24,999,720 draws fit under 25,000,000; one more does not.
        assert SynthConfig(n_versions=5, n_datasets=1, feature_arity=46_040, n_regions=4, seed=1).feature_arity == 46_040
        with pytest.raises(SynthError) as exc:
            SynthConfig(n_versions=5, n_datasets=1, feature_arity=46_041, n_regions=4, seed=1)
        assert exc.value.category == "invalid config"
        assert "46041 features x (31 cut slots + 512) is 25000263 draws, more than 25000000" in str(exc.value)

    def test_feature_range_of_ten_million_cut_slots_is_accepted(self):
        config = SynthConfig(n_versions=5, n_datasets=10, feature_arity=2, n_regions=4, seed=1,
                             feature_range=(-5, 10**7 - 5))
        assert config.feature_range[1] - config.feature_range[0] == 10**7

    def test_every_config_that_builds_can_be_planted(self):
        # Regions 1-40 x arity 1-4 x range width 0-10: a layout either fits when the config is built, or the
        # config is refused there, never later inside generate.
        built = 0
        for regions in range(1, 41):
            for arity in range(1, 5):
                for width in range(11):
                    try:
                        config = SynthConfig(n_versions=regions + 1, n_datasets=1, feature_arity=arity,
                                             n_regions=regions, seed=regions, feature_range=(1, 1 + width))
                    except SynthError as exc:
                        assert exc.category == "invalid config"
                        continue
                    built += 1
                    _, truth = generate(config)
                    assert len(truth.region_winners) == regions
                    assert generate_test(config, 7)[1].pieces == truth.pieces
        assert built == 658
