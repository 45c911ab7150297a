"""Client-side comparison logic shared by the UDF and middleware baselines.

The paper's UDF and middleware both *incorporate* the trendwise
comparison and summary-aggregate pruning optimizations (§8, setup) —
what they lack is in-engine execution (parallel operators, no data
movement). This module is that client logic: pure pandas/numpy,
single-threaded.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core.pruning import candidate_pairs  # same pair semantics as Φ
from repro.core.scorer import align, score_from_sum, score_np, segment_bounds
from repro.core.spec import CompareSpec, output_cols, output_row


def group_trends(pdf: pd.DataFrame, vary_cols, gcol: str, vcol: str):
    """Partition an aggregated frame into per-trend (keys, vals) vectors.

    NULL cells are dropped: a NULL DIFF is skipped by the score, and the
    summary bounds need finite values.
    """
    pdf = pdf[pdf[vcol].notna()]
    out = {}
    if not vary_cols:
        s = pdf.sort_values(gcol)
        out[()] = (s[gcol].to_numpy(), s[vcol].to_numpy(dtype=np.float64))
        return out
    for tid, grp in pdf.groupby(list(vary_cols), sort=False):
        tid = tid if isinstance(tid, tuple) else (tid,)
        s = grp.sort_values(gcol)
        out[tid] = (s[gcol].to_numpy(), s[vcol].to_numpy(dtype=np.float64))
    return out


def _score(spec: CompareSpec, t1, t2) -> float:
    (k1, v1), (k2, v2) = t1, t2
    i1, i2 = align(k1, k2)
    return score_np(spec.scorer, v1[i1], v2[i2])


def _pairs(spec: CompareSpec, trends1: dict, trends2: dict):
    """Comparable (tid1, tid2) pairs, in the trends' order."""
    l1, l2 = list(trends1), list(trends2)
    ia, ib = candidate_pairs(spec, l1, l2)
    return [(l1[i], l2[j]) for i, j in zip(ia, ib)]


def score_all_pairs(spec: CompareSpec, trends1: dict, trends2: dict, gm_idx: int):
    """(tid1, tid2, gm_idx, score) for every comparable pair with matches."""
    rows = []
    for a, b in _pairs(spec, trends1, trends2):
        score = _score(spec, trends1[a], trends2[b])
        if not np.isnan(score):
            rows.append((a, b, gm_idx, score))
    return rows


def topk_pairs(
    spec: CompareSpec,
    per_gm: list[tuple[dict, dict]],
    k: int,
    ascending: bool,
    prune: bool = True,
):
    """Client-side top-k with single-summary bound pruning.

    Bounds mirror Φp's with one segment per trend (COUNT/SUM/MIN/MAX):
    enough to skip clearly-out pairs without the full operator.
    """
    sign = 1.0 if not ascending else -1.0
    cands = []
    for gi, (t1s, t2s) in enumerate(per_gm):
        sums1 = {t: _summary(v) for t, v in t1s.items()}
        sums2 = sums1 if t1s is t2s else {t: _summary(v) for t, v in t2s.items()}
        for a, b in _pairs(spec, t1s, t2s):
            lo, hi, cnt = _pair_bounds(spec, sums1[a], sums2[b])
            if cnt == 0:
                continue
            cands.append([gi, a, b, lo, hi, cnt])
    if not cands:
        return []
    if prune and spec.scorer.agg in ("SUM", "AVG") and len(cands) > k:
        pess = sorted((sign * (c[3] if sign > 0 else c[4]) for c in cands), reverse=True)
        thr = pess[k - 1]
        slack = 1e-9 * max(1.0, abs(thr))  # tight p=1 bounds: see pruning._prune_slack
        cands = [c for c in cands if sign * (c[4] if sign > 0 else c[3]) >= thr - slack]
    scored = []
    for gi, a, b, _, _, _ in cands:
        t1s, t2s = per_gm[gi]
        scored.append((a, b, gi, _score(spec, t1s[a], t2s[b])))
    scored.sort(key=lambda r: (r[3] if ascending else -r[3], r[0], r[1], r[2]))
    return scored[:k]


def _summary(t):
    k, v = t
    return (len(v), float(v.sum()), float(v.min()), float(v.max()), k)


def _pair_bounds(spec: CompareSpec, s1, s2):
    """Φp's bounds with one segment per trend, on the scorer's scale."""
    *agg1, k1 = s1
    *agg2, k2 = s2
    cnt = len(align(k1, k2)[0])
    if cnt == 0:
        return 0.0, 0.0, 0
    lb, ub = segment_bounds(spec.scorer.p, cnt, agg1, agg2)
    return (
        float(score_from_sum(spec.scorer, lb, cnt)),
        float(score_from_sum(spec.scorer, ub, cnt)),
        cnt,
    )


def compare_trends(spec: CompareSpec, per_gm: list[tuple[dict, dict]], k: int | None,
                   ascending: bool) -> pd.DataFrame:
    """Every comparable pair's scores (``k=None``) or the top-k, as the
    canonical output frame. ``per_gm[i]`` holds ``spec.gms[i]``'s trends."""
    if k is None:
        rows = [r for gi, (t1, t2) in enumerate(per_gm) for r in score_all_pairs(spec, t1, t2, gi)]
    else:
        rows = topk_pairs(spec, per_gm, k, ascending)
    return pd.DataFrame([output_row(spec, a, b, spec.gms[gi], score) for a, b, gi, score in rows],
                        columns=output_cols(spec))
