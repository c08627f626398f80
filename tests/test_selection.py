"""Greedy representative selection, pruning, the brute-force oracle, metrics."""

import math

import numpy as np
import pytest

from mvkit import (
    Constraints,
    SelectionError,
    evaluate_set,
    exhaustive_select,
    greedy_select,
    objective,
    speedups,
)
from mvkit.rng import Rng, mix_seed
from mvkit.selection import _best, _prune
from mvkit.scenario import SpeedupMatrix

LN2 = math.log(2.0)
LN15 = math.log(1.5)


def random_matrix(seed: int, n_cand_range=(2, 8), n_data_range=(2, 10)) -> SpeedupMatrix:
    rng = Rng(mix_seed(4242, seed))
    n_cand = rng.randint(*n_cand_range)
    n_data = rng.randint(*n_data_range)
    entries = np.ones((n_cand + 1, n_data))
    for vi in range(1, n_cand + 1):
        for di in range(n_data):
            entries[vi, di] = rng.uniform(0.5, 3.0)
    return SpeedupMatrix(
        baseline_id=0,
        version_ids=tuple(range(n_cand + 1)),
        dataset_ids=tuple(range(n_data)),
        entries=entries,
    )


def uniform_sizes(matrix: SpeedupMatrix) -> dict[int, int]:
    return {v: 100 for v in matrix.version_ids}


class TestObjective:
    def test_singletons(self, toy_matrix):
        assert objective(toy_matrix, {3}) == pytest.approx(2 * LN15, abs=1e-12)
        assert objective(toy_matrix, {1}) == pytest.approx(LN2, abs=1e-12)

    def test_pair_covers_both_datasets(self, toy_matrix):
        assert objective(toy_matrix, {1, 2}) == pytest.approx(2 * LN2, abs=1e-12)

    def test_empty_set_is_zero(self, toy_matrix):
        assert objective(toy_matrix, set()) == 0.0

    def test_slowdowns_clamp_to_zero(self, useless_scenario):
        m = speedups(useless_scenario)
        assert objective(m, {1}) == 0.0

    def test_unknown_version_rejected(self, toy_matrix):
        with pytest.raises(SelectionError) as exc:
            objective(toy_matrix, {42})
        assert exc.value.category == "unknown version"

    def test_baseline_not_a_candidate(self, toy_matrix):
        with pytest.raises(SelectionError):
            objective(toy_matrix, {0})


class TestGreedy:
    def test_two_pick_trace(self, toy_scenario, toy_matrix):
        r = greedy_select(
            toy_matrix,
            toy_scenario.code_sizes(),
            toy_scenario.baseline_binary_size,
            Constraints(max_versions=2, min_gain=0.0),
        )
        assert r.selected == (3, 1)
        assert [s.picked for s in r.trace] == [3, 1]
        assert r.trace[0].gain == pytest.approx(2 * LN15, abs=1e-12)
        assert r.trace[1].gain == pytest.approx(LN2 - LN15, abs=1e-12)
        assert r.objective_value == pytest.approx(LN2 + LN15, abs=1e-12)

    def test_three_picks_then_prune_drops_first(self, toy_scenario, toy_matrix):
        r = greedy_select(
            toy_matrix,
            toy_scenario.code_sizes(),
            toy_scenario.baseline_binary_size,
            Constraints(max_versions=3),
        )
        assert [s.picked for s in r.trace] == [3, 1, 2]
        assert [p.removed for p in r.pruned] == [3]
        assert set(r.selected) == {1, 2}
        assert r.objective_value == pytest.approx(math.log(4.0), abs=1e-9)
        assert r.geomean_speedup == pytest.approx(math.exp(math.log(4.0) / 3), abs=1e-12)

    def test_useless_candidate_never_picked(self, useless_scenario):
        m = speedups(useless_scenario)
        r = greedy_select(
            m,
            useless_scenario.code_sizes(),
            useless_scenario.baseline_binary_size,
            Constraints(max_versions=1),
        )
        assert r.selected == ()
        assert r.objective_value == 0.0
        assert r.geomean_speedup == 1.0

    def test_trace_objective_is_nondecreasing(self):
        for seed in range(40):
            m = random_matrix(seed)
            r = greedy_select(m, uniform_sizes(m), 1000, Constraints(max_versions=3, min_gain=0.0))
            values = [0.0] + [s.objective_after for s in r.trace]
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_respects_max_versions(self):
        for seed in range(40):
            m = random_matrix(seed)
            for k in (1, 2, 3):
                r = greedy_select(m, uniform_sizes(m), 1000, Constraints(max_versions=k, min_gain=0.0))
                assert len(r.selected) <= k

    def test_respects_size_budget(self):
        for seed in range(40):
            m = random_matrix(seed)
            sizes = {v: 100 * (1 + v) for v in m.version_ids}
            budget = 0.45  # fraction of the baseline binary
            r = greedy_select(
                m, sizes, 1000, Constraints(max_versions=5, size_budget=budget, min_gain=0.0)
            )
            used = sum(sizes[v] for v in r.selected) / 1000
            assert used <= budget + 1e-12
            assert r.size_used == pytest.approx(used, abs=1e-12)

    def test_size_priority_stops_at_loss_tolerance(self, toy_scenario, toy_matrix):
        r = greedy_select(
            toy_matrix,
            toy_scenario.code_sizes(),
            toy_scenario.baseline_binary_size,
            Constraints(max_versions=3, loss_tolerance=0.0, mode="size_priority"),
        )
        assert r.max_dataset_loss <= 0.0 + 1e-12
        assert set(r.selected) == {1, 2}

    def test_size_priority_allows_early_stop_with_slack(self, toy_scenario, toy_matrix):
        # accepting 34% loss lets a single version cover everything
        r = greedy_select(
            toy_matrix,
            toy_scenario.code_sizes(),
            toy_scenario.baseline_binary_size,
            Constraints(max_versions=3, loss_tolerance=0.34, mode="size_priority"),
        )
        assert len(r.selected) == 1
        assert r.max_dataset_loss <= 0.34 + 1e-12

    def test_invalid_constraints_rejected(self):
        with pytest.raises(SelectionError) as exc:
            Constraints(max_versions=0)
        assert exc.value.category == "invalid constraints"
        with pytest.raises(SelectionError):
            Constraints(max_versions=2, loss_tolerance=-0.5)
        with pytest.raises(SelectionError):
            Constraints(max_versions=2, mode="fastest")

    def test_missing_code_size_rejected(self, toy_matrix):
        with pytest.raises(SelectionError) as exc:
            greedy_select(toy_matrix, {0: 1000}, 1000, Constraints(max_versions=1))
        assert exc.value.category == "unknown version"


class TestPrune:
    def test_removes_fully_dominated_member(self, toy_matrix, toy_scenario):
        oracle = _best(toy_matrix, toy_matrix.candidate_ids)
        kept, _ = _prune(toy_matrix, [1, 2, 3], Constraints(max_versions=3), toy_scenario.code_sizes(), oracle)
        assert kept == [1, 2]

    def test_keeps_contributing_members(self, toy_matrix, toy_scenario):
        oracle = _best(toy_matrix, toy_matrix.candidate_ids)
        kept, steps = _prune(toy_matrix, [1, 2], Constraints(max_versions=3), toy_scenario.code_sizes(), oracle)
        assert (kept, steps) == ([1, 2], [])

    def test_prune_steps_visible_in_greedy_trace(self, toy_matrix, toy_scenario):
        r = greedy_select(
            toy_matrix,
            toy_scenario.code_sizes(),
            toy_scenario.baseline_binary_size,
            Constraints(max_versions=3),
        )
        assert [p.removed for p in r.pruned] == [3]
        assert r.pruned[0].decrease == pytest.approx(0.0, abs=1e-12)
        assert r.pruned[0].objective_after == pytest.approx(math.log(4.0), abs=1e-12)


class TestExhaustive:
    def test_best_singleton(self, toy_matrix):
        subset, f = exhaustive_select(toy_matrix, 1)
        assert subset == frozenset({3})
        assert f == pytest.approx(2 * LN15, abs=1e-12)

    def test_best_pair(self, toy_matrix):
        subset, f = exhaustive_select(toy_matrix, 2)
        assert subset == frozenset({1, 2})
        assert f == pytest.approx(2 * LN2, abs=1e-12)

    def test_k_beyond_pool_is_capped(self, toy_matrix):
        subset, f = exhaustive_select(toy_matrix, 9)
        assert subset == frozenset({1, 2})
        assert f == pytest.approx(2 * LN2, abs=1e-12)

    def test_useless_candidate_gives_empty_set(self, useless_scenario):
        m = speedups(useless_scenario)
        subset, f = exhaustive_select(m, 1)
        assert subset == frozenset()
        assert f == 0.0

    def test_pool_size_guard(self):
        entries = np.ones((23, 2))
        entries[1:, :] = 1.5
        m = SpeedupMatrix(
            baseline_id=0,
            version_ids=tuple(range(23)),
            dataset_ids=(0, 1),
            entries=entries,
        )
        with pytest.raises(SelectionError) as exc:
            exhaustive_select(m, 2)
        assert exc.value.category == "instance too large for oracle"

    def test_invalid_k(self, toy_matrix):
        with pytest.raises(SelectionError):
            exhaustive_select(toy_matrix, 0)


class TestEvaluateSet:
    def test_single_version_losses(self, toy_matrix):
        met = evaluate_set(toy_matrix, {1})
        assert met.per_dataset_loss == pytest.approx((0.0, 1.0, 0.0), abs=1e-12)
        assert met.covered_count == 2
        assert met.geomean_speedup == pytest.approx(2 ** (1 / 3), abs=1e-12)
        assert met.oracle_geomean == pytest.approx(2 ** (2 / 3), abs=1e-12)

    def test_full_pool_has_zero_loss(self, toy_matrix):
        met = evaluate_set(toy_matrix, {1, 2, 3})
        assert met.per_dataset_loss == pytest.approx((0.0, 0.0, 0.0), abs=1e-12)
        assert met.covered_count == 3
        assert met.geomean_speedup == pytest.approx(met.oracle_geomean, abs=1e-12)


class TestStructuralProperties:
    """Monotonicity and submodularity of f on random instances."""

    def test_monotone(self):
        for seed in range(60):
            m = random_matrix(seed)
            rng = Rng(mix_seed(7, seed))
            pool = list(m.candidate_ids)
            rng.shuffle(pool)
            cut = rng.randint(1, len(pool))
            small = set(pool[:cut])
            for extra in pool[cut:]:
                assert objective(m, small | {extra}) >= objective(m, small) - 1e-12

    def test_submodular_diminishing_returns(self):
        for seed in range(60):
            m = random_matrix(seed)
            pool = sorted(m.candidate_ids)
            if len(pool) < 3:
                continue
            a, b, x = pool[0], pool[1], pool[-1]
            small, large = {a}, {a, b}
            if x in large:
                continue
            gain_small = objective(m, small | {x}) - objective(m, small)
            gain_large = objective(m, large | {x}) - objective(m, large)
            assert gain_small >= gain_large - 1e-12
