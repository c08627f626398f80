"""Sort-and-sweep split search shared by the tree, regtree and rules learners.

Every learner considers the same candidates: for each feature, the
midpoints of consecutive distinct sorted values among the node's samples,
with "<=" routing left. Instead of rescanning the samples for every
candidate, each feature is sorted once per node and swept:

* the left side of threshold ``thr`` is the prefix of the sorted order of
  length ``bisect_right(sorted_values, thr)``. That is the real "<="
  predicate, which matters because the midpoint of two adjacent floats can
  round to the upper value, and the midpoint of two huge values can
  overflow to infinity;
* the classifier sweeps per-class counts forwards (left sides) and
  backwards (right sides). Entropy sums ``-p*log2(p)`` over a side's
  classes in the order they first appear among that side's samples, so
  gains are bitwise equal to scoring each candidate with its own pass;
* the rule search sweeps hits and kept counts; precision ``hits / kept``
  is an integer quotient and therefore exact;
* the regressor sweeps running sums and squared sums. The one-pass
  ``Σt² − (Σt)²/m`` is not bitwise equal to the two-pass :func:`_sse`, so it
  only shortlists: see :func:`best_regression_split` for the bound. The
  shortlist is rescored with :func:`_sse_reduction`.

Ties go to the lower feature, then the lower threshold (and "<=" before
">" for rules), exactly as a scan in (feature, threshold) order would.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from typing import Sequence

from .samples import LabeledSample, RegressionSample

# (score, feature, threshold) of the best tree split, or None without candidates.
Split = tuple[float, int, float]
# (-precision, -kept, feature, threshold, op_rank) of the best rule condition;
# op_rank 0 is "<=", 1 is ">". The smallest key wins.
ConditionKey = tuple[float, int, int, float, int]

_UNIT_ROUNDOFF = 2.0**-53
_SMALLEST_SUBNORMAL = 2.0**-1074


def midpoints(values: Sequence[float]) -> list[float]:
    """Split candidates: midpoints of consecutive distinct sorted values."""
    distinct = sorted(set(values))
    return [(a + b) / 2.0 for a, b in zip(distinct, distinct[1:])]


def majority(labels: Sequence[int]) -> int:
    """Most frequent label; ties go to the smaller label."""
    counts = Counter(labels)
    return min(counts, key=lambda lab: (-counts[lab], lab))


def _cuts(values: Sequence[float]) -> tuple[list[int], list[tuple[float, int]]]:
    """Sorted sample order of one feature, and each threshold with its left size.

    Left sizes never decrease along the list, because midpoints do not.
    """
    order = sorted(range(len(values)), key=values.__getitem__)
    ordered = [values[i] for i in order]
    return order, [(thr, bisect_right(ordered, thr)) for thr in midpoints(values)]


def _side_entropies(labels: Sequence[int], order: Sequence[int], sizes: Sequence[int]) -> list[float]:
    """Entropy of the first ``size`` samples of ``order`` for each size (non-decreasing).

    Classes are summed in the order of their smallest original index on
    that side, which is the order they first appear in the side's samples.
    """
    counts: dict[int, int] = {}
    first: dict[int, int] = {}
    ranked: list[int] = []
    out: list[float] = []
    swept = 0
    for size in sizes:
        reranked = False
        while swept < size:
            i = order[swept]
            lab = labels[i]
            counts[lab] = counts.get(lab, 0) + 1
            if i < first.get(lab, i + 1):
                first[lab] = i
                reranked = True
            swept += 1
        if reranked:
            ranked = sorted(counts, key=first.__getitem__)
        h = 0.0
        for lab in ranked:
            p = counts[lab] / size
            h -= p * math.log2(p)
        out.append(h)
    return out


def best_class_split(samples: Sequence[LabeledSample]) -> Split | None:
    """Highest information-gain split (entropy in bits) of a classifier node."""
    n = len(samples)
    labels = [s.label for s in samples]
    parent = _side_entropies(labels, range(n), [n])[0]
    best: Split | None = None
    for j in range(len(samples[0].features)):
        order, cuts = _cuts([s.features[j] for s in samples])
        sizes = [nl for _, nl in cuts]
        left = _side_entropies(labels, order, sizes)
        right = _side_entropies(labels, order[::-1], [n - nl for nl in reversed(sizes)])[::-1]
        for (thr, nl), h_left, h_right in zip(cuts, left, right):
            if nl == 0 or nl == n:
                score = 0.0
            else:
                score = parent - (nl / n) * h_left - ((n - nl) / n) * h_right
            if best is None or score > best[0] or (score == best[0] and (j, thr) < (best[1], best[2])):
                best = (score, j, thr)
    return best


def _sse(targets: Sequence[float]) -> float:
    n = len(targets)
    mean = sum(targets) / n
    return sum((t - mean) ** 2 for t in targets)


def _sse_reduction(samples: Sequence[RegressionSample], feature: int, threshold: float) -> float:
    left = [s.target for s in samples if s.features[feature] <= threshold]
    right = [s.target for s in samples if s.features[feature] > threshold]
    if not left or not right:
        return 0.0
    return _sse([s.target for s in samples]) - _sse(left) - _sse(right)


def _running_sums(targets: Sequence[float], order: Sequence[int], sizes: Sequence[int]) -> list[tuple[float, float]]:
    """(Σt, Σt²) over the first ``size`` samples of ``order`` for each size."""
    out: list[tuple[float, float]] = []
    total = squares = 0.0
    swept = 0
    for size in sizes:
        while swept < size:
            t = targets[order[swept]]
            total += t
            squares += t * t
            swept += 1
        out.append((total, squares))
    return out


def best_regression_split(samples: Sequence[RegressionSample]) -> Split | None:
    """Largest squared-error reduction split of a regressor node.

    Every candidate first gets a one-pass cost ``Σt² − (Σt)²/m`` summed
    over its two sides. Let ``u = 2⁻⁵³``, ``γ(k) = k·u/(1 − k·u)``, ``n``
    the node size and ``M`` the node's largest ``|t|``. The standard error
    bounds of summation put that cost within about ``6.6·γ(n+2)·n·M²`` of
    what :func:`_sse_reduction` computes (up to its constant parent term);
    ``ε = 8·γ(n+2)·n·M²``, plus ``8·(n+4)`` subnormal units for underflow,
    covers it with margin. A candidate whose cost exceeds the smallest by
    more than ``2ε`` therefore scores strictly below the winner, so only the
    others are rescored with :func:`_sse_reduction`, and the best is taken
    in (feature, threshold) order. If the sums overflow, every candidate is
    rescored. Sides with no samples score 0.0, as in ``_sse_reduction``.
    """
    n = len(samples)
    targets = [s.target for s in samples]
    scale = max(abs(t) for t in targets)
    gamma = (n + 2) * _UNIT_ROUNDOFF / (1.0 - (n + 2) * _UNIT_ROUNDOFF)
    # one-pass sums <= 4.5, two-pass _sse <= 1.02, the final subtractions
    # and the sum of the two sides <= 1.05, in units of gamma * n * M^2
    eps = 8.0 * gamma * n * scale * scale + 8.0 * (n + 4) * _SMALLEST_SUBNORMAL

    candidates: list[tuple[int, float, float | None]] = []  # (feature, threshold, cost)
    for j in range(len(samples[0].features)):
        order, cuts = _cuts([s.features[j] for s in samples])
        sizes = [nl for _, nl in cuts]
        left = _running_sums(targets, order, sizes)
        right = _running_sums(targets, order[::-1], [n - nl for nl in reversed(sizes)])[::-1]
        for (thr, nl), (s_l, q_l), (s_r, q_r) in zip(cuts, left, right):
            if nl == 0 or nl == n:
                candidates.append((j, thr, None))
            else:
                candidates.append((j, thr, (q_l - s_l * s_l / nl) + (q_r - s_r * s_r / (n - nl))))

    costs = [cost for _, _, cost in candidates if cost is not None]
    if costs and all(math.isfinite(c) for c in costs):
        cutoff = min(costs) + 2.0 * eps
    else:
        cutoff = math.inf  # no candidates, or the sums overflowed

    best: Split | None = None
    for j, thr, cost in candidates:
        if cost is None:
            score = 0.0
        elif cost <= cutoff:
            score = _sse_reduction(samples, j, thr)
        else:
            continue
        if best is None or score > best[0] or (score == best[0] and (j, thr) < (best[1], best[2])):
            best = (score, j, thr)
    return best


def best_condition(samples: Sequence[LabeledSample], target: int) -> ConditionKey | None:
    """Highest-precision single condition for ``target`` over ``samples``.

    Ties go to higher coverage, then lower feature, lower threshold and
    "<=" before ">". Conditions that keep no sample are not candidates.
    """
    n = len(samples)
    hits = [1 if s.label == target else 0 for s in samples]
    total_hits = sum(hits)
    best: ConditionKey | None = None
    for j in range(len(samples[0].features)):
        order, cuts = _cuts([s.features[j] for s in samples])
        left_hits = 0
        swept = 0
        for thr, nl in cuts:
            while swept < nl:
                left_hits += hits[order[swept]]
                swept += 1
            for op_rank, kept, kept_hits in ((0, nl, left_hits), (1, n - nl, total_hits - left_hits)):
                if not kept:
                    continue
                key = (-(kept_hits / kept), -kept, j, thr, op_rank)
                if best is None or key < best:
                    best = key
    return best
