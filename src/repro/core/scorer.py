"""DIFF(p) and aggregated distance functions (paper §2.2.3, Defs. 6–8).

Provides both Spark Column expressions (used by the join-based plans)
and numpy kernels (used by the trendwise/pruning operators and the
driver-side Algorithm 2).
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import Column
from pyspark.sql import functions as F

from .spec import Scorer


def diff_col(m1: Column, m2: Column, p: int) -> Column:
    """DIFF(m1, m2, p) = |m1 - m2|^p as a Spark column (Def. 7)."""
    d = F.abs(m1 - m2)
    return d * d if p == 2 else F.pow(d, float(p))


def agg_col(scorer: Scorer, diff: Column) -> Column:
    """The scorer's aggregate over a DIFF column."""
    fn = {"SUM": F.sum, "AVG": F.avg, "MIN": F.min, "MAX": F.max}[scorer.agg]
    return fn(diff)


def diff_np(v1: np.ndarray, v2: np.ndarray, p: int) -> np.ndarray:
    d = np.abs(v1 - v2)
    return d * d if p == 2 else d**p


_AGG_NP = {"SUM": np.sum, "AVG": np.mean, "MIN": np.min, "MAX": np.max}


def score_np(scorer: Scorer, v1: np.ndarray, v2: np.ndarray) -> float:
    """Score two *aligned* measure vectors over the cells where both are
    non-NULL (NaN), as SQL aggregates skip NULL DIFFs. NaN when none are."""
    both = ~(np.isnan(v1) | np.isnan(v2))
    if not both.any():
        return float("nan")
    return float(_AGG_NP[scorer.agg](diff_np(v1[both], v2[both], scorer.p)))


def align(k1: np.ndarray, k2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inner-join two (sorted, unique) key vectors (Def. 7's join on
    grouping value): index arrays ``i1``, ``i2`` with ``k1[i1] == k2[i2]``.

    Tuples with non-matching grouping values are ignored. One alignment
    serves every measure vector keyed by ``k1``/``k2``.
    """
    _, i1, i2 = np.intersect1d(k1, k2, assume_unique=True, return_indices=True)
    return i1, i2


def score_pair(scorer: Scorer, k1, v1, k2, v2) -> float:
    """Align two trends on grouping value and score them."""
    i1, i2 = align(np.asarray(k1), np.asarray(k2))
    return score_np(scorer, np.asarray(v1, dtype=np.float64)[i1],
                    np.asarray(v2, dtype=np.float64)[i2])


def score_from_sum(scorer: Scorer, total, count):
    """Convert SUM-of-DIFF totals and matched counts to the scorer's scale.

    Used by the pruning operator, whose bounds are derived on SUM. Takes
    scalars or arrays; AVG is NaN where nothing matched.
    """
    if scorer.agg == "SUM":
        return total
    if scorer.agg == "AVG":
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.divide(total, count)
    raise ValueError(f"pruning bounds only support SUM/AVG, got {scorer.agg}")


def segment_diff_sums(p: int, v1, m1, v2, m2, starts) -> np.ndarray:
    """Exact SUM OVER DIFF(p) per segment of row-aligned trend pairs.

    Row ``r`` of ``v1``/``m1`` (values and key mask over a span of the
    grouping domain) is compared with row ``r`` of ``v2``/``m2`` on the
    keys both have; ``starts`` are the segments' first columns in the span.
    """
    return np.add.reduceat(np.where(m1 & m2, diff_np(v1, v2, p), 0.0), starts, axis=1)


def segment_bounds(p: int, matched, s1, s2):
    """Lower and upper bounds on SUM OVER DIFF(p) within segments (paper §5).

    ``matched`` is the number of tuples the two trends match in each
    segment; ``s1``/``s2`` are each trend's segment (COUNT, SUM, MIN, MAX).
    All arguments broadcast, so one call bounds every pair × segment.

    * upper: ``matched · max(|max1−min2|, |max2−min1|)^p`` (non-negativity
      and monotonicity of DIFF), sound for any matched tuples;
    * lower: ``matched · DIFF(avg1, avg2, p)`` (Theorem 1, convexity) where
      the segment is fully matched on both sides, else 0.

    Segments with nothing matched bound to 0.
    """
    n1, sum1, lo1, hi1 = s1
    n2, sum2, lo2, hi2 = s2
    some = matched > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        gap = np.maximum(np.abs(hi1 - lo2), np.abs(hi2 - lo1))
        ub = np.where(some, matched * gap**p, 0.0)
        full = some & (matched == n1) & (matched == n2)
        lb = np.where(full, matched * np.abs(sum1 / n1 - sum2 / n2) ** p, 0.0)
    return lb, ub
