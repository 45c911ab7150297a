"""Φp's array kernels on random ragged trends, without Spark: segment
bounds bracket every exact segment score, and refining every segment
reproduces ``scorer.score_pair``."""
import numpy as np
import pytest

from repro.core.pruning import matched_counts, segment_starts, sturges
from repro.core.scorer import score_from_sum, score_pair, segment_bounds, segment_diff_sums
from repro.core.spec import Scorer


def _trends(rng, n_trends=10, nd=45):
    """Trends × domain key masks and values: three dense trends, the rest ragged."""
    mask = rng.random((n_trends, nd)) < rng.uniform(0.3, 0.95, (n_trends, 1))
    mask[:3] = True
    level = rng.normal(0, 4, (n_trends, 1))
    vals = np.where(mask, level + rng.normal(0, 3, (n_trends, nd)), 0.0)
    return mask, vals


def _segment_aggregates(mask, vals, starts):
    """Reference per-segment COUNT/SUM/MIN/MAX, one trend and segment at a time."""
    shape = (len(mask), len(starts) - 1)
    cnt, tot, lo, hi = np.zeros(shape), np.zeros(shape), np.zeros(shape), np.zeros(shape)
    for t in range(shape[0]):
        for b in range(shape[1]):
            v = vals[t, starts[b]:starts[b + 1]][mask[t, starts[b]:starts[b + 1]]]
            if v.size:
                cnt[t, b], tot[t, b], lo[t, b], hi[t, b] = v.size, v.sum(), v.min(), v.max()
    return cnt, tot, lo, hi


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("agg", ["SUM", "AVG"])
def test_bounds_bracket_and_refinement_is_exact(p, agg):
    rng = np.random.default_rng(7 * p + len(agg))
    mask, vals = _trends(rng)
    nd = mask.shape[1]
    starts = segment_starts(nd, sturges(nd))
    summ = _segment_aggregates(mask, vals, starts)
    ia, ib = np.triu_indices(len(mask), k=1)

    matched = matched_counts(mask, mask, starts, ia, ib)
    lb, ub = segment_bounds(
        p, matched, tuple(a[ia] for a in summ), tuple(a[ib] for a in summ)
    )
    exact = segment_diff_sums(p, vals[ia], mask[ia], vals[ib], mask[ib], starts[:-1])
    scorer, seg_scorer = Scorer(agg, p), Scorer("SUM", p)

    full = 0
    for r, (a, b) in enumerate(zip(ia, ib)):
        for s in range(len(starts) - 1):
            keys = np.arange(starts[s], starts[s + 1])
            k1, k2 = keys[mask[a, keys]], keys[mask[b, keys]]
            assert matched[r, s] == len(np.intersect1d(k1, k2))
            want = score_pair(seg_scorer, k1, vals[a, k1], k2, vals[b, k2])
            if matched[r, s] == 0:
                assert np.isnan(want) and lb[r, s] == ub[r, s] == exact[r, s] == 0
                continue
            tol = 1e-9 * max(1.0, abs(want))
            assert lb[r, s] <= want + tol and want <= ub[r, s] + tol, (r, s)
            assert exact[r, s] == pytest.approx(want, rel=1e-12, abs=1e-12)
            full += lb[r, s] > 0
        k1, k2 = np.flatnonzero(mask[a]), np.flatnonzero(mask[b])
        total = score_from_sum(scorer, exact[r].sum(), matched[r].sum())
        assert total == pytest.approx(score_pair(scorer, k1, vals[a, k1], k2, vals[b, k2]),
                                      rel=1e-12)
        lo = score_from_sum(scorer, lb[r].sum(), matched[r].sum())
        hi = score_from_sum(scorer, ub[r].sum(), matched[r].sum())
        assert lo <= total * (1 + 1e-9) + 1e-9 and total <= hi * (1 + 1e-9) + 1e-9
    assert full > 0  # the dense trends exercise Theorem 1
