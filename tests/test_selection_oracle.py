"""Selection through one row reader against the row-by-row code it replaced.

The oracle below is the earlier selection module, verbatim from
``_clamped_logs`` to ``evaluate_set`` less its ``prune_redundant``
wrapper (``selection._prune`` is compared with ``_prune_with_trace``). It
builds every subset's rows with one ``log_row``/``row`` call per version,
special-cases the empty set, rebuilds the all-candidate oracle at every size-mode loss check, and
re-filters the pruned picks. ``_RowView`` gives it the per-version row
accessors it was written against. Every result, float or trace, must be
equal with ``==`` on seeded matrices whose quantized speedups make ties
in gain, decrease and loss common.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from mvkit import selection
from mvkit.rng import Rng, mix_seed
from mvkit.scenario import SpeedupMatrix
from mvkit.selection import (
    ORACLE_LIMIT,
    PERF_PRIORITY,
    SIZE_PRIORITY,
    Constraints,
    PickStep,
    PruneStep,
    RepresentativeSet,
    SelectionError,
    SetMetrics,
)


class _RowView:
    """A matrix with the per-version ``row``/``log_row`` accessors the oracle reads."""

    def __init__(self, matrix: SpeedupMatrix) -> None:
        self._matrix = matrix

    def __getattr__(self, name):
        return getattr(self._matrix, name)

    def log_row(self, version_id: int) -> np.ndarray:
        return self._matrix.log_entries[self._matrix.version_ids.index(version_id)]

    def row(self, version_id: int) -> np.ndarray:
        return self._matrix.entries[self._matrix.version_ids.index(version_id)]


# --- oracle: the row-by-row selection module -----------------------------------


def _clamped_logs(matrix: SpeedupMatrix) -> tuple[tuple[int, ...], np.ndarray]:
    """Per-candidate max(0, ln s) rows; baseline row dropped.

    Clamping each row at zero commutes with the max over a subset, because
    max(0, max_v x_v) = max_v max(0, x_v); it bakes the implicit baseline
    into every cell so f(S) is just a column-max sum.
    """
    ids = matrix.candidate_ids
    rows = np.array([np.maximum(matrix.log_row(v), 0.0) for v in ids])
    return ids, rows


def _check_subset(matrix: SpeedupMatrix, subset: set[int] | frozenset[int]) -> None:
    known = set(matrix.candidate_ids)
    for v in subset:
        if v not in known:
            raise SelectionError("unknown version", f"version {v} is not a candidate in the matrix")


def objective(matrix: SpeedupMatrix, subset: set[int] | frozenset[int]) -> float:
    """f(S): summed per-dataset best log-speedup over S plus baseline."""
    _check_subset(matrix, subset)
    if not subset:
        return 0.0
    rows = np.array([np.maximum(matrix.log_row(v), 0.0) for v in sorted(subset)])
    return float(rows.max(axis=0).sum())


def _loss_vector(matrix: SpeedupMatrix, subset: set[int]) -> np.ndarray:
    """loss(S, d) = s*(d)/s_S(d) - 1 against the all-candidates oracle."""
    cand_rows = np.array([matrix.row(v) for v in matrix.candidate_ids])
    star = np.maximum(cand_rows.max(axis=0), 1.0) if len(cand_rows) else np.ones(matrix.n_datasets)
    if subset:
        sub_rows = np.array([matrix.row(v) for v in sorted(subset)])
        attained = np.maximum(sub_rows.max(axis=0), 1.0)
    else:
        attained = np.ones(matrix.n_datasets)
    return star / attained - 1.0


def greedy_select(
    matrix: SpeedupMatrix,
    code_sizes: dict[int, int],
    baseline_binary_size: int,
    constraints: Constraints,
) -> RepresentativeSet:
    """Grow a representative set greedily, then prune redundant members.

    Each growth step adds the budget-fitting candidate with the largest
    objective gain (ties: smaller code_size, then smaller id) and stops at
    ``max_versions`` picks, when the best gain drops below ``min_gain``, or
    when nothing fits the remaining budget. In size_priority mode the loop
    also stops as soon as the worst per-dataset loss is within
    ``loss_tolerance``. The pruning pass then drops members per
    :func:`prune_redundant`, and the result reports the pruned set.
    """
    ids, rows = _clamped_logs(matrix)
    if not ids:
        raise SelectionError("no candidates", "matrix has no non-baseline versions")
    for v in ids:
        if v not in code_sizes:
            raise SelectionError("unknown version", f"code size missing for version {v}")

    budget_bytes = constraints.size_budget * baseline_binary_size
    index_of = {v: i for i, v in enumerate(ids)}
    picked: list[int] = []
    best = np.zeros(matrix.n_datasets)  # per-dataset best clamped log so far
    f_cur = 0.0
    used_bytes = 0
    trace: list[PickStep] = []

    while len(picked) < constraints.max_versions:
        if constraints.mode == SIZE_PRIORITY:
            if float(_loss_vector(matrix, set(picked)).max(initial=0.0)) <= constraints.loss_tolerance:
                break
        eligible = [
            v for v in ids if v not in picked and used_bytes + code_sizes[v] <= budget_bytes
        ]
        if not eligible:
            break
        gains = {
            v: float(np.maximum(rows[index_of[v]], best).sum()) - f_cur for v in eligible
        }
        pick = min(eligible, key=lambda v: (-gains[v], code_sizes[v], v))
        if gains[pick] < constraints.min_gain:
            break
        picked.append(pick)
        used_bytes += code_sizes[pick]
        best = np.maximum(best, rows[index_of[pick]])
        f_cur = float(best.sum())
        trace.append(PickStep(pick, gains[pick], f_cur))

    kept, prune_trace = _prune_with_trace(matrix, picked, constraints, code_sizes)
    kept_ordered = tuple(v for v in picked if v in kept)
    f_final = objective(matrix, set(kept_ordered))
    losses = _loss_vector(matrix, set(kept_ordered))
    size_used = (
        sum(code_sizes[v] for v in kept_ordered) / baseline_binary_size
        if baseline_binary_size
        else 0.0
    )
    return RepresentativeSet(
        selected=kept_ordered,
        objective_value=f_final,
        geomean_speedup=math.exp(f_final / matrix.n_datasets),
        max_dataset_loss=float(losses.max(initial=0.0)),
        size_used=size_used,
        trace=tuple(trace),
        pruned=tuple(prune_trace),
    )


def _prune_with_trace(
    matrix: SpeedupMatrix,
    selected: list[int],
    constraints: Constraints,
    code_sizes: dict[int, int] | None,
) -> tuple[set[int], list[PruneStep]]:
    sizes = code_sizes or {}
    current = list(selected)
    steps: list[PruneStep] = []
    while current:
        f_cur = objective(matrix, set(current))
        candidates = []
        for v in current:
            remaining = set(current) - {v}
            decrease = f_cur - objective(matrix, remaining)
            candidates.append((decrease, -sizes.get(v, 0), -v, v, remaining))
        decrease, _, _, victim, remaining = min(candidates)
        if constraints.mode == SIZE_PRIORITY:
            ok = float(_loss_vector(matrix, remaining).max(initial=0.0)) <= constraints.loss_tolerance
        else:
            ok = decrease < constraints.min_gain
        if not ok:
            break
        current.remove(victim)
        steps.append(PruneStep(victim, decrease, objective(matrix, set(current))))
    return set(current), steps


def exhaustive_select(
    matrix: SpeedupMatrix,
    k: int,
    code_sizes: dict[int, int] | None = None,
) -> tuple[frozenset[int], float]:
    """Brute-force oracle: the f-best subset of at most k candidates.

    Enumerates every subset of size <= k (k is capped at the pool size).
    Ties go to the smaller total code size, then to the lexicographically
    smallest sorted id tuple. Refuses pools above ``ORACLE_LIMIT``.
    """
    ids, rows = _clamped_logs(matrix)
    if len(ids) > ORACLE_LIMIT:
        raise SelectionError(
            "instance too large for oracle", f"{len(ids)} candidates exceed the limit of {ORACLE_LIMIT}"
        )
    if not isinstance(k, int) or k < 1:
        raise SelectionError("invalid constraints", f"k must be a positive integer, got {k!r}")
    sizes = code_sizes or {}
    index = list(range(len(ids)))
    best_key: tuple[float, int, tuple[int, ...]] | None = None
    best_subset: tuple[int, ...] = ()
    best_f = 0.0
    for size in range(0, min(k, len(ids)) + 1):
        for combo in itertools.combinations(index, size):
            f_val = float(rows[list(combo)].max(axis=0).sum()) if combo else 0.0
            members = tuple(sorted(ids[i] for i in combo))
            key = (-f_val, sum(sizes.get(v, 0) for v in members), members)
            if best_key is None or key < best_key:
                best_key, best_subset, best_f = key, members, f_val
    return frozenset(best_subset), best_f


def evaluate_set(matrix: SpeedupMatrix, subset: set[int] | frozenset[int]) -> SetMetrics:
    """Compare a fixed subset against the full-candidate oracle."""
    _check_subset(matrix, subset)
    losses = _loss_vector(matrix, set(subset))
    f_val = objective(matrix, subset)
    f_star = objective(matrix, set(matrix.candidate_ids))
    return SetMetrics(
        geomean_speedup=math.exp(f_val / matrix.n_datasets),
        per_dataset_loss=tuple(float(x) for x in losses),
        covered_count=int((losses <= 1e-9).sum()),
        oracle_geomean=math.exp(f_star / matrix.n_datasets),
    )


# --- seeded cases --------------------------------------------------------------

SEEDS = range(200)


def random_case(seed: int) -> tuple[SpeedupMatrix, dict[int, int], int]:
    """A matrix, its code sizes and the baseline size.

    Speedups are multiples of 1/4 in [0.25, 3], so equal gains, decreases
    and losses are common; every third candidate never beats the baseline,
    and a few matrices have no candidate at all. Version ids are shuffled,
    so the baseline is not always the first row and rows are not in id order.
    """
    rng = Rng(mix_seed(1313, seed))
    n_cand = 0 if seed % 50 == 7 else rng.randint(1, 12)
    n_data = rng.randint(1, 12)
    ids = list(range(0, 3 * (n_cand + 1), 3))
    rng.shuffle(ids)
    entries = np.ones((n_cand + 1, n_data))
    for vi in range(1, n_cand + 1):
        top = 3 if vi % 3 == 0 else 12
        for di in range(n_data):
            entries[vi, di] = rng.randint(1, top) / 4.0
    matrix = SpeedupMatrix(
        baseline_id=ids[0], version_ids=tuple(ids), dataset_ids=tuple(range(n_data)), entries=entries,
    )
    sizes = {v: 50 * rng.randint(1, 3) for v in ids}
    return matrix, sizes, 400


def constraint_sets(seed: int, n_cand: int) -> list[Constraints]:
    rng = Rng(mix_seed(2626, seed))
    out = []
    for mode in (PERF_PRIORITY, SIZE_PRIORITY):
        for loss in (0.0, 0.1, 0.5):
            out.append(Constraints(
                max_versions=rng.randint(1, max(n_cand, 1) + 1),
                size_budget=(math.inf, 0.0, 0.25, 0.5, 1.0)[rng.randint(0, 4)],
                loss_tolerance=loss,
                min_gain=(1e-9, 0.0, 0.2)[rng.randint(0, 2)],
                mode=mode,
            ))
    return out


def subsets(seed: int, candidates: tuple[int, ...]) -> list[frozenset[int]]:
    """Empty, every single, a random one and the full candidate set."""
    rng = Rng(mix_seed(3939, seed))
    shuffled = list(candidates)
    rng.shuffle(shuffled)
    some = frozenset(shuffled[: rng.randint(0, len(shuffled))])
    return [frozenset(), *(frozenset({v}) for v in candidates), some, frozenset(candidates)]


def prune(matrix: SpeedupMatrix, subset: frozenset[int], c: Constraints, code_sizes: dict[int, int] | None):
    """``selection._prune`` of ``subset`` in id order, against the all-candidate oracle."""
    oracle = selection._best(matrix, matrix.candidate_ids)
    return selection._prune(matrix, sorted(subset), c, code_sizes or {}, oracle)


def outcome(fn, *args):
    """``fn``'s result, or its error's category and message."""
    try:
        return fn(*args)
    except SelectionError as exc:
        return ("error", exc.category, str(exc))


@pytest.mark.parametrize("seed", SEEDS)
def test_greedy_select_matches_oracle(seed):
    matrix, sizes, base = random_case(seed)
    for c in constraint_sets(seed, len(matrix.candidate_ids)):
        new = outcome(selection.greedy_select, matrix, sizes, base, c)
        assert new == outcome(greedy_select, _RowView(matrix), sizes, base, c), c


@pytest.mark.parametrize("seed", SEEDS)
def test_prune_objective_and_evaluate_match_oracle(seed):
    matrix, sizes, _ = random_case(seed)
    view = _RowView(matrix)
    for subset in subsets(seed, matrix.candidate_ids):
        assert selection.objective(matrix, subset) == objective(view, subset)
        assert selection.evaluate_set(matrix, subset) == evaluate_set(view, subset)
        for c in constraint_sets(seed, len(matrix.candidate_ids)):
            for code_sizes in (None, sizes):
                kept, steps = prune(matrix, subset, c, code_sizes)
                old = _prune_with_trace(view, sorted(subset), c, code_sizes)
                assert (set(kept), steps) == old, (subset, c, code_sizes)


@pytest.mark.parametrize("seed", [s for s in SEEDS if len(random_case(s)[0].candidate_ids) <= 8])
def test_exhaustive_select_matches_oracle(seed):
    matrix, sizes, _ = random_case(seed)
    for k in range(1, len(matrix.candidate_ids) + 2):
        for code_sizes in (None, sizes):
            new = selection.exhaustive_select(matrix, k, code_sizes)
            assert new == exhaustive_select(_RowView(matrix), k, code_sizes)


def test_cases_cover_ties_slow_candidates_and_size_mode_prunes():
    """The seeded cases reach what the oracle comparison is meant to check."""
    empty = slow = tied = size_pruned = 0
    for seed in SEEDS:
        matrix, _, _ = random_case(seed)
        full = frozenset(matrix.candidate_ids)
        empty += not full
        slow += bool((matrix.entries.max(axis=1) < 1.0).any())
        if len(full) > 1:
            f_full = selection.objective(matrix, full)
            decreases = sorted(f_full - selection.objective(matrix, full - {v}) for v in full)
            tied += decreases[0] == decreases[1]  # the prune tie-break decides the first removal
        for c in constraint_sets(seed, len(full)):
            size_pruned += c.mode == SIZE_PRIORITY and len(prune(matrix, full, c, None)[0]) < len(full)
    assert empty and slow > 20 and tied > 20 and size_pruned > 20
