"""Representative-set selection over a speedup matrix.

The objective rewards a subset S of candidate versions by how well the
best member of S (or the baseline) does on each dataset, in log space:

    f(S) = sum over datasets d of  max(0, max_{v in S} ln s(v, d))

The baseline contributes ln 1 = 0, so f(empty) = 0 and f is non-negative,
monotone, and submodular; greedy selection therefore carries the
(1 - 1/e) approximation guarantee, and exp(f(S)/|D|) is the geometric
mean of the speedups an oracle restricted to S u {baseline} achieves.

Selection runs a greedy growth loop followed by a pruning pass that
drops members whose removal costs less than the gain threshold (or, in
size_priority mode, keeps the per-dataset loss within tolerance). All
tie-breaks are deterministic: growth prefers smaller code_size then
smaller id, pruning removes larger code_size then larger id first.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import MvkitError
from .scenario import SpeedupMatrix

PERF_PRIORITY = "perf_priority"
SIZE_PRIORITY = "size_priority"

ORACLE_LIMIT = 20  # exhaustive_select refuses larger candidate pools


class SelectionError(MvkitError):
    """Selection failure with a stable machine-checkable ``category``."""


@dataclass(frozen=True)
class Constraints:
    """Limits on the representative set.

    ``max_versions`` counts non-baseline representatives. ``size_budget``
    caps their total code size as a fraction of the baseline binary size
    (inf = unbounded). ``loss_tolerance`` is the maximum allowed
    per-dataset relative loss vs the full-candidate oracle and only
    drives ``size_priority`` mode. ``min_gain`` is the objective-gain
    stopping threshold for growth and the redundancy threshold for
    pruning.
    """

    max_versions: int
    size_budget: float = math.inf
    loss_tolerance: float = 0.0
    min_gain: float = 1e-9
    mode: str = PERF_PRIORITY

    def __post_init__(self) -> None:
        if not isinstance(self.max_versions, int) or self.max_versions < 1:
            raise SelectionError(
                "invalid constraints", f"max_versions must be a positive integer, got {self.max_versions!r}"
            )
        if math.isnan(self.size_budget) or self.size_budget < 0:
            raise SelectionError("invalid constraints", f"size_budget must be >= 0, got {self.size_budget!r}")
        if math.isnan(self.loss_tolerance) or self.loss_tolerance < 0:
            raise SelectionError(
                "invalid constraints", f"loss_tolerance must be >= 0, got {self.loss_tolerance!r}"
            )
        if math.isnan(self.min_gain) or self.min_gain < 0:
            raise SelectionError("invalid constraints", f"min_gain must be >= 0, got {self.min_gain!r}")
        if self.mode not in (PERF_PRIORITY, SIZE_PRIORITY):
            raise SelectionError(
                "invalid constraints",
                f"mode must be {PERF_PRIORITY!r} or {SIZE_PRIORITY!r}, got {self.mode!r}",
            )


@dataclass(frozen=True)
class PickStep:
    """One greedy growth step: which version was added and what it gained."""

    picked: int
    gain: float
    objective_after: float


@dataclass(frozen=True)
class PruneStep:
    """One pruning step: which version was dropped and what it cost."""

    removed: int
    decrease: float
    objective_after: float


@dataclass(frozen=True)
class RepresentativeSet:
    """Greedy selection result after pruning.

    ``selected`` keeps greedy pick order with pruned members removed.
    ``trace`` records every growth step (including later-pruned picks), so
    the objective is non-decreasing along it; ``pruned`` records the
    removals. ``size_used`` is the total selected code size as a fraction
    of the baseline binary size, directly comparable to the budget.
    """

    selected: tuple[int, ...]
    objective_value: float
    geomean_speedup: float
    max_dataset_loss: float
    size_used: float
    trace: tuple[PickStep, ...]
    pruned: tuple[PruneStep, ...]


@dataclass(frozen=True)
class SetMetrics:
    """How a fixed subset performs against the full-candidate oracle."""

    geomean_speedup: float
    per_dataset_loss: tuple[float, ...]
    covered_count: int
    oracle_geomean: float


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


def prune_redundant(
    matrix: SpeedupMatrix,
    selected: set[int] | frozenset[int],
    constraints: Constraints,
    code_sizes: dict[int, int] | None = None,
) -> set[int]:
    """Drop members whose removal is (nearly) free.

    Repeatedly removes the member with the smallest objective decrease
    while that decrease stays below ``min_gain`` (perf_priority) or while
    the worst per-dataset loss stays within ``loss_tolerance``
    (size_priority). Removal ties go to larger code_size, then larger id.
    Without ``code_sizes`` the size tie-break is inert.
    """
    _check_subset(matrix, selected)
    kept, _ = _prune_with_trace(matrix, sorted(selected), constraints, code_sizes)
    return kept


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
