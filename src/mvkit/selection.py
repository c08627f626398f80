"""Representative-set selection over a speedup matrix.

The objective rewards a subset S of candidates (never the baseline, which
every set ships) by how well S's best member or the baseline does, in log space:

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
from typing import Iterable

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


def _best_logs(matrix: SpeedupMatrix, members: Iterable[int]) -> np.ndarray:
    """Per-dataset max(0, max over members of ln s): the baseline's 0 is the initial value."""
    return matrix.log_entries[matrix.row_positions(members)].max(axis=0, initial=0.0)


def _best(matrix: SpeedupMatrix, members: Iterable[int]) -> np.ndarray:
    """Per-dataset speedup of the oracle over members plus the baseline (s = 1)."""
    return matrix.entries[matrix.row_positions(members)].max(axis=0, initial=1.0)


def _max_loss(matrix: SpeedupMatrix, oracle: np.ndarray, members: Iterable[int]) -> float:
    """max over d of loss(S, d) = s*(d)/s_S(d) - 1, against the all-candidates ``oracle`` row."""
    return float((oracle / _best(matrix, members) - 1.0).max(initial=0.0))


def objective(matrix: SpeedupMatrix, subset: Iterable[int]) -> float:
    """f(S): summed per-dataset best log-speedup over S plus baseline."""
    subset = matrix.representative(subset, SelectionError)
    return float(_best_logs(matrix, subset).sum())


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
    :func:`_prune`, and the result reports the pruned set.
    """
    ids = matrix.candidate_ids
    if not ids:
        raise SelectionError("no candidates", "matrix has no non-baseline versions")
    for v in ids:
        if v not in code_sizes:
            raise SelectionError("unknown version", f"code size missing for version {v}")

    log_row = dict(zip(ids, matrix.log_entries[matrix.row_positions(ids)]))
    oracle = _best(matrix, ids)
    budget_bytes = constraints.size_budget * baseline_binary_size
    picked: list[int] = []
    best = np.zeros(matrix.n_datasets)  # per-dataset best max(0, ln s) so far; >= 0 clamps each row
    f_cur = 0.0
    used_bytes = 0
    trace: list[PickStep] = []

    while len(picked) < constraints.max_versions:
        if constraints.mode == SIZE_PRIORITY and _max_loss(matrix, oracle, picked) <= constraints.loss_tolerance:
            break
        gains = {
            v: float(np.maximum(row, best).sum()) - f_cur
            for v, row in log_row.items()
            if v not in picked and used_bytes + code_sizes[v] <= budget_bytes
        }
        if not gains:
            break
        pick = min(gains, key=lambda v: (-gains[v], code_sizes[v], v))
        if gains[pick] < constraints.min_gain:
            break
        picked.append(pick)
        used_bytes += code_sizes[pick]
        best = np.maximum(best, log_row[pick])
        f_cur = float(best.sum())
        trace.append(PickStep(pick, gains[pick], f_cur))

    kept, pruned = _prune(matrix, picked, constraints, code_sizes, oracle)
    metrics = evaluate_set(matrix, frozenset(kept))
    size_used = sum(code_sizes[v] for v in kept) / baseline_binary_size if baseline_binary_size else 0.0
    return RepresentativeSet(
        selected=tuple(kept),
        objective_value=pruned[-1].objective_after if pruned else f_cur,
        geomean_speedup=metrics.geomean_speedup,
        max_dataset_loss=max(metrics.per_dataset_loss, default=0.0),
        size_used=size_used,
        trace=tuple(trace),
        pruned=tuple(pruned),
    )


def _prune(
    matrix: SpeedupMatrix,
    members: list[int],
    constraints: Constraints,
    code_sizes: dict[int, int],
    oracle: np.ndarray,
) -> tuple[list[int], list[PruneStep]]:
    """Drop members whose removal is (nearly) free; the kept ones, in their order, and the removals.

    Repeatedly removes the member with the smallest objective decrease
    while that decrease stays below ``min_gain`` (perf_priority) or while
    the worst per-dataset loss against ``oracle`` stays within
    ``loss_tolerance`` (size_priority). Removal ties go to larger
    code_size (0 when missing from ``code_sizes``), then larger id.
    """
    kept, steps = list(members), []
    f_cur = float(_best_logs(matrix, kept).sum())
    while kept:
        f_without = {v: float(_best_logs(matrix, [u for u in kept if u != v]).sum()) for v in kept}
        victim = min(kept, key=lambda v: (f_cur - f_without[v], -code_sizes.get(v, 0), -v))
        rest = [u for u in kept if u != victim]
        decrease = f_cur - f_without[victim]
        if constraints.mode == SIZE_PRIORITY:
            ok = _max_loss(matrix, oracle, rest) <= constraints.loss_tolerance
        else:
            ok = decrease < constraints.min_gain
        if not ok:
            break
        kept, f_cur = rest, f_without[victim]
        steps.append(PruneStep(victim, decrease, f_cur))
    return kept, steps


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
    ids = matrix.candidate_ids
    if len(ids) > ORACLE_LIMIT:
        raise SelectionError(
            "instance too large for oracle", f"{len(ids)} candidates exceed the limit of {ORACLE_LIMIT}"
        )
    if not isinstance(k, int) or k < 1:
        raise SelectionError("invalid constraints", f"k must be a positive integer, got {k!r}")
    rows = matrix.log_entries[matrix.row_positions(ids)]
    sizes = code_sizes or {}
    best_key: tuple[float, int, tuple[int, ...]] | None = None
    best_subset: tuple[int, ...] = ()
    best_f = 0.0
    for size in range(0, min(k, len(ids)) + 1):
        for combo in itertools.combinations(range(len(ids)), size):
            f_val = float(rows[list(combo)].max(axis=0, initial=0.0).sum())
            members = tuple(sorted(ids[i] for i in combo))
            key = (-f_val, sum(sizes.get(v, 0) for v in members), members)
            if best_key is None or key < best_key:
                best_key, best_subset, best_f = key, members, f_val
    return frozenset(best_subset), best_f


def evaluate_set(matrix: SpeedupMatrix, subset: Iterable[int]) -> SetMetrics:
    """Compare a fixed subset against the full-candidate oracle."""
    subset = matrix.representative(subset, SelectionError)
    candidates = matrix.candidate_ids
    losses = _best(matrix, candidates) / _best(matrix, subset) - 1.0
    return SetMetrics(
        geomean_speedup=math.exp(float(_best_logs(matrix, subset).sum()) / matrix.n_datasets),
        per_dataset_loss=tuple(losses.tolist()),
        covered_count=int((losses <= 1e-9).sum()),
        oracle_geomean=math.exp(float(_best_logs(matrix, candidates).sum()) / matrix.n_datasets),
    )
