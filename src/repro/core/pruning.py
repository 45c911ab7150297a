"""The Φp pruning physical operator for DIFF-based comparison (paper §5).

Summarize → Bound → Prune → Refine, over struct-of-arrays state:

1. **Summarize** — each trend is summarized by *segment aggregates*
   (COUNT, SUM, MIN, MAX per segment) plus the set of grouping keys per
   segment (the paper's bitmap, used to COUNT matching tuples between
   trends). Segment count follows Sturges, ``floor(1 + log2(n))``.
   Segments are aligned on **global grouping-value quantile buckets**
   (identical to the paper's index segments when trend domains
   coincide, and sound when they do not — see DESIGN.md §4). Summaries
   are computed *in Spark* (one groupBy over trend × segment per block
   side) and fetched with ``toPandas`` into a :class:`_Side`: trends ×
   segments arrays of COUNT, SUM, MIN and MAX and a trends × domain 0/1
   key mask, with trends in identity order.
2. **Bound** — candidate pairs are two index arrays into the sides'
   trends. Matched counts for all pairs × segments come from one 0/1
   matmul per segment (:func:`matched_counts`, the AND + popcount of the
   two bitmaps); lower/upper bounds (pairs × segments) from one
   broadcast of :func:`repro.core.scorer.segment_bounds`: Theorem 1 on
   fully matched segments, the max-gap bound everywhere. Sums over
   segments bound ``SUM OVER DIFF(p)``; AVG scores divide by the exact
   matched count.
3. **Prune** — the threshold T is the k-th best pessimistic bound over
   all pairs (one ``np.partition``); any pair whose optimistic bound
   cannot reach T is pruned *before its tuples are ever fetched*.
4. **Refine** (Algorithm 2, batched) — surviving trends' aggregated
   vectors are fetched into trends × domain value arrays. Each round
   takes the k live pairs with the best optimistic bounds (ties broken
   by pair identity, as :func:`repro.core.compare.topk_exact` does) and
   refines one chunk of each — one segment, or ``tuples_per_update``
   tuples (Fig. 12) — by gathering their aligned values
   (:func:`repro.core.scorer.segment_diff_sums`). Bounds only tighten,
   so the threshold is updated from the previous k best pessimistic
   bounds and the refined pairs. It stops when those k pairs are all
   exact: nothing else can beat their exact scores.

This module is the paper's new physical operator; Algorithm 2 runs on
the driver (as in the paper's single-threaded pseudo-code) over
Spark-computed summaries — see DESIGN.md §2 for the layering argument.
No driver array has a pairs × domain dimension: pair state is pairs ×
segments, and value gathers are done a bounded number of pairs at a time.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from .aggregates import G_COL, MergeGroup, VectorBlock, build_vector_blocks
from .scorer import score_from_sum, segment_bounds, segment_diff_sums
from .spec import CompareSpec, output_row, output_schema

#: most values gathered per side at once when refining (bounds driver memory)
_GATHER = 1 << 16
#: refinement candidates are drawn from the _POOL·k best optimistic bounds
_POOL = 64


def sturges(n: int) -> int:
    """Number of segment aggregates per trend, ``floor(1 + log2(n))``."""
    return max(1, int(1 + math.log2(n))) if n > 0 else 1


def _prune_slack(thr: float) -> float:
    """Relative epsilon for prune comparisons.

    For p=1 the Theorem-1 lower bound is *exactly* tight when all tuple
    diffs share a sign, so float rounding can place a pair's bound a few
    ulps above its true score; without slack the threshold would prune
    the k-th pair against itself.
    """
    return 1e-9 * max(1.0, abs(thr))


@dataclass
class PruneStats:
    """Observability for the ablation / sensitivity experiments."""

    n_pairs: int = 0
    pruned_initial: int = 0
    pruned_refining: int = 0
    refine_steps: int = 0
    segments_refined: int = 0
    tuples_compared: int = 0
    summary_floats: int = 0  # 4 aggregates × segments × trends (memory proxy)
    surviving_trends: int = 0
    total_trends: int = 0


def _py(v):
    """numpy scalar → python scalar (for createDataFrame rows)."""
    return v.item() if isinstance(v, np.generic) else v


# ---------------------------------------------------------------------------
# Array kernels (Spark-free)
# ---------------------------------------------------------------------------


def segment_starts(nd: int, n_segments: int) -> np.ndarray:
    """First domain position of each quantile bucket, plus ``nd`` at the end.

    Position ``i`` of the sorted grouping domain lies in bucket
    ``i · l // nd``; with ``l ≤ nd`` no bucket is empty.
    """
    seg = (np.arange(nd, dtype=np.int64) * n_segments) // max(nd, 1)
    return np.searchsorted(seg, np.arange(n_segments + 1))


def matched_counts(mask1, mask2, starts, ia, ib) -> np.ndarray:
    """Tuples that pairs ``(ia[r], ib[r])`` match, per segment (pairs × segments).

    ``mask1``/``mask2`` are the sides' trends × domain key bitmaps. The
    AND + popcount over one segment is a 0/1 matrix product of the two
    sides' segment columns (exact in float32 below 2**24 keys).
    """
    m1 = mask1.astype(np.float32)
    m2 = m1 if mask2 is mask1 else mask2.astype(np.float32)
    out = np.empty((len(ia), len(starts) - 1), dtype=np.int64)
    for s in range(len(starts) - 1):
        cols = slice(starts[s], starts[s + 1])
        out[:, s] = (m1[:, cols] @ m2[:, cols].T)[ia, ib]
    return out


# ---------------------------------------------------------------------------
# Summarize
# ---------------------------------------------------------------------------


@dataclass
class _Segments:
    """Segmentation of one grouping column's sorted domain."""

    domain: pd.Index
    starts: np.ndarray
    bucket_df: DataFrame | None  # (__g, __gi, __b) for the Summarize join

    @property
    def n(self) -> int:
        return len(self.starts) - 1


@dataclass
class _Side:
    """Summaries of one block side, with its trends in identity order.

    ``cnt`` and ``agg[gm]`` (SUM, MIN, MAX) are trends × segments;
    ``mask`` (trends × domain) marks the grouping values each trend has.
    ``vals[gm]`` (trends × domain) holds the measure values of the trends
    fetched for refinement, zero elsewhere.
    """

    tids: list[tuple]
    index: pd.MultiIndex | None  # tids, to map fetched rows; None without vary cols
    cnt: np.ndarray
    mask: np.ndarray
    agg: dict
    vals: dict = field(default_factory=dict)

    def summary(self, gm, rows):
        """(COUNT, SUM, MIN, MAX) segment arrays of the given trend rows."""
        return (self.cnt[rows], *(a[rows] for a in self.agg[gm]))

    def rows_of(self, pdf: pd.DataFrame, vary) -> np.ndarray:
        if self.index is None:
            return np.zeros(len(pdf), dtype=np.int64)
        return self.index.get_indexer(pd.MultiIndex.from_frame(pdf[list(vary)]))


def _segments(spark, blocks: list[VectorBlock], n_segments: int | None) -> dict:
    """Sorted domain and quantile segments of every grouping column."""
    out: dict[str, _Segments] = {}
    for blk in blocks:
        if blk.g in out:
            continue
        dom = blk.rel2.select(G_COL)
        if not blk.shared:
            dom = dom.union(blk.rel1.select(G_COL))
        gvals = sorted(r[0] for r in dom.distinct().collect())
        nd = len(gvals)
        l = n_segments if n_segments is not None else sturges(nd)
        l = max(1, min(l, nd)) if nd else 1
        starts = segment_starts(nd, l)
        bucket_df = spark.createDataFrame(
            pd.DataFrame(
                {G_COL: [_py(v) for v in gvals],
                 "__gi": np.arange(nd, dtype=np.int64),
                 "__b": np.repeat(np.arange(l, dtype=np.int64), np.diff(starts))}
            )
        ) if nd else None
        out[blk.g] = _Segments(pd.Index(gvals), starts, bucket_df)
    return out


def summarize(rel: DataFrame, vary: tuple[str, ...], blk: VectorBlock, seg: _Segments) -> _Side:
    """Segment aggregates of every measure of a block side, in ONE groupBy
    fetched through Arrow, laid out as trends × segments arrays."""
    nd, l = len(seg.domain), seg.n
    if seg.bucket_df is None:
        empty = np.zeros((0, l))
        return _Side([], None, empty.astype(np.int64), np.zeros((0, nd), dtype=bool),
                     {gm: (empty, empty, empty) for gm in blk.value_cols})
    aggs = [F.count(F.lit(1)).alias("__cnt"),
            F.sort_array(F.collect_list("__gi")).alias("__keys")]
    for vc in blk.value_cols.values():
        aggs += [F.sum(vc).alias("s" + vc), F.min(vc).alias("n" + vc),
                 F.max(vc).alias("x" + vc)]
    pdf = (
        rel.join(F.broadcast(seg.bucket_df), on=G_COL, how="inner")
        .groupBy(*vary, "__b")
        .agg(*aggs)
        .toPandas()
    )
    if vary:
        index = pd.MultiIndex.from_frame(pdf[list(vary)]).unique().sort_values()
        tids = [tuple(_py(v) for v in t) for t in index]
    else:
        index, tids = None, [()] if len(pdf) else []
    side = _Side(tids, index, np.zeros((len(tids), l), dtype=np.int64),
                 np.zeros((len(tids), nd), dtype=bool), {})
    t = side.rows_of(pdf, vary)
    b = pdf["__b"].to_numpy(dtype=np.int64)
    n = pdf["__cnt"].to_numpy(dtype=np.int64)
    side.cnt[t, b] = n
    if len(pdf):
        side.mask[np.repeat(t, n), np.concatenate(pdf["__keys"].to_list())] = True
    for gm, vc in blk.value_cols.items():
        arrs = []
        for prefix in "snx":
            a = np.zeros((len(tids), l))
            a[t, b] = pdf[prefix + vc].to_numpy(dtype=np.float64)
            arrs.append(a)
        side.agg[gm] = tuple(arrs)
    return side


def _fetch_vectors(spark, rel: DataFrame, vary, blk: VectorBlock, seg: _Segments,
                   side: _Side, rows: np.ndarray) -> None:
    """Fetch the aggregated vectors of the given trends into ``side.vals``."""
    if vary:
        sdf = spark.createDataFrame(
            pd.DataFrame([{c: _py(v) for c, v in zip(vary, side.tids[r])} for r in rows])
        )
        rel = rel.join(F.broadcast(sdf), on=list(vary), how="left_semi")
    pdf = rel.toPandas()
    t = side.rows_of(pdf, vary)
    gi = seg.domain.get_indexer(pdf[G_COL])
    for gm, vc in blk.value_cols.items():
        v = np.zeros(side.mask.shape)
        v[t, gi] = pdf[vc].to_numpy(dtype=np.float64)
        side.vals[gm] = v


# ---------------------------------------------------------------------------
# Pairs
# ---------------------------------------------------------------------------


def _constraint_tuple(spec: CompareSpec, side: int, tid: tuple) -> tuple:
    """Full constraint tuple (sorted col order) for identity comparison."""
    ts = spec.t1 if side == 1 else spec.t2
    vary = list(ts.vary_cols)
    vals = {}
    for t in ts.terms:
        vals[t.col] = t.value if not t.varies else tid[vary.index(t.col)]
    return tuple(vals[c] for c in sorted(ts.cols))


def candidate_pairs(spec: CompareSpec, tids1, tids2) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays ``(i, j)`` of the comparable pairs ``tids1[i] × tids2[j]``.

    Pairs come in row-major order. Pairs of equal constraint tuples are
    dropped (``exclude_equal``); with symmetric dedup only ``t1 < t2`` is kept.
    """
    keep = np.ones((len(tids1), len(tids2)), dtype=bool)
    if spec.dedup_symmetric or spec.exclude_equal:
        c1 = [_constraint_tuple(spec, 1, t) for t in tids1]
        c2 = [_constraint_tuple(spec, 2, t) for t in tids2]
        order = {c: i for i, c in enumerate(sorted(set(c1) | set(c2)))}
        r1 = np.fromiter((order[c] for c in c1), dtype=np.int64, count=len(c1))
        r2 = np.fromiter((order[c] for c in c2), dtype=np.int64, count=len(c2))
        keep = (r1[:, None] < r2) if spec.dedup_symmetric else (r1[:, None] != r2)
    ia, ib = np.nonzero(keep)
    return ia.astype(np.int64), ib.astype(np.int64)


def _ranks(sides: list[_Side]) -> list[np.ndarray]:
    """Position of each side's trends in the sorted union of all their ids."""
    pos = {t: i for i, t in enumerate(sorted(set().union(*(s.tids for s in sides))))}
    return [np.fromiter((pos[t] for t in s.tids), dtype=np.int64, count=len(s.tids))
            for s in sides]


@dataclass
class _Pairs:
    """Φp state of every candidate pair, as struct-of-arrays.

    ``gm``/``ia``/``ib`` identify a pair (index into ``spec.gms`` and the
    trend rows of its two sides); ``rank`` orders pairs by identity.
    ``matched``, ``lb``, ``ub`` and ``done`` (segment refined, or nothing
    matched) are pairs × segments, padded with empty segments to the
    largest segment count.
    """

    gm: np.ndarray
    ia: np.ndarray
    ib: np.ndarray
    rank: np.ndarray
    cnt: np.ndarray
    matched: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    done: np.ndarray


def _bound_pairs(spec: CompareSpec, sides: dict, segs: dict) -> _Pairs:
    """Candidate pairs of every (g, m) with their initial segment bounds."""
    p = spec.scorer.p
    width = max(segs[g].n for g, _ in spec.gms)
    rank1 = dict(zip(spec.gms, _ranks([sides[gm][0] for gm in spec.gms])))
    rank2 = dict(zip(spec.gms, _ranks([sides[gm][1] for gm in spec.gms])))
    gm_rank = {gm: r for r, gm in enumerate(sorted(spec.gms, key=lambda x: (x[0], x[1].name)))}
    parts = []
    shared_work: dict = {}  # (side1, side2) → pairs and matched counts
    for gi, gm in enumerate(spec.gms):
        s1, s2 = sides[gm]
        key = (id(s1), id(s2))
        if key not in shared_work:
            ia, ib = candidate_pairs(spec, s1.tids, s2.tids)
            matched = matched_counts(s1.mask, s2.mask, segs[gm[0]].starts, ia, ib)
            cnt = matched.sum(axis=1)
            some = cnt > 0  # no matching grouping values: no score (Def. 7)
            shared_work[key] = (ia[some], ib[some], matched[some], cnt[some])
        ia, ib, matched, cnt = shared_work[key]
        lb, ub = segment_bounds(p, matched, s1.summary(gm, ia), s2.summary(gm, ib))
        pad = ((0, 0), (0, width - matched.shape[1]))
        parts.append((np.full(len(ia), gi), ia, ib, rank1[gm][ia], rank2[gm][ib],
                      np.full(len(ia), gm_rank[gm]), cnt,
                      np.pad(matched, pad), np.pad(lb, pad), np.pad(ub, pad)))
    gm_of, ia, ib, r1, r2, rg, cnt, matched, lb, ub = (np.concatenate(c) for c in zip(*parts))
    rank = np.empty(len(ia), dtype=np.int64)
    rank[np.lexsort((rg, r2, r1))] = np.arange(len(ia))
    return _Pairs(gm_of, ia, ib, rank, cnt, matched, lb, ub, matched == 0)


def _kth(values: np.ndarray, n: int) -> float:
    """The n-th largest value; −inf when there are n or fewer."""
    if len(values) <= n:
        return -np.inf
    return float(np.partition(values, len(values) - n)[len(values) - n])


def _best_pos(key: np.ndarray, rank: np.ndarray, n: int) -> np.ndarray:
    """Positions of the ``n`` largest ``key`` values, best first; ties go
    to the smaller identity ``rank``."""
    pos = np.flatnonzero(key >= _kth(key, n))
    return pos[np.lexsort((rank[pos], -key[pos]))[:n]]


def _best(idx: np.ndarray, key: np.ndarray, rank: np.ndarray, n: int) -> np.ndarray:
    """The ``n`` entries of ``idx`` with the largest ``key``, best first."""
    return idx[_best_pos(key[idx], rank[idx], n)]


class _Refiner:
    """Algorithm 2 over the pair arrays (paper §5, batched).

    Keeps each pair's segment-bound sums and its optimistic (``opt``) and
    pessimistic (``pess``) scores, both oriented so that larger is better.
    """

    def __init__(self, spec: CompareSpec, sides: dict, segs: dict, pr: _Pairs,
                 ascending: bool, stats: PruneStats):
        self.spec, self.pr, self.stats, self.asc = spec, pr, stats, ascending
        # per (g, m) index: the pair's sides and its grouping's segment starts
        self._gm = [(gm, *sides[gm], segs[gm[0]].starts) for gm in spec.gms]
        self.lb_sum, self.ub_sum = pr.lb.sum(axis=1), pr.ub.sum(axis=1)
        self.opt, self.pess = np.empty(len(pr.ia)), np.empty(len(pr.ia))
        self._rescore(slice(None))

    def _rescore(self, rows) -> None:
        lo = score_from_sum(self.spec.scorer, self.lb_sum[rows], self.pr.cnt[rows])
        hi = score_from_sum(self.spec.scorer, self.ub_sum[rows], self.pr.cnt[rows])
        self.opt[rows], self.pess[rows] = (-lo, -hi) if self.asc else (hi, lo)

    def refine(self, rows: np.ndarray, budget: float) -> None:
        """Replace the bounds of each row's next ``budget`` tuples' worth of
        segments (at least one; Fig. 12's tuples-per-update) by exact sums."""
        pr, p = self.pr, self.spec.scorer.p
        done = pr.done[rows]
        rem = np.where(done, 0, pr.matched[rows])
        take = ~done & (np.cumsum(rem, axis=1) - rem < budget)
        gms = pr.gm[rows]
        for gi in dict.fromkeys(gms.tolist()):
            gm, s1, s2, starts = self._gm[gi]
            r, t = (rows, take) if len(self._gm) == 1 else (rows[gms == gi], take[gms == gi])
            used = np.flatnonzero(t.any(axis=0))
            b0, b1 = used[0], used[-1] + 1
            cols = slice(starts[b0], starts[b1])
            step = max(1, _GATHER // (starts[b1] - starts[b0]))
            for c in range(0, len(r), step):
                rc, (ri, si) = r[c:c + step], np.nonzero(t[c:c + step, b0:b1])
                a, b = pr.ia[rc], pr.ib[rc]
                ex = segment_diff_sums(p, s1.vals[gm][a, cols], s1.mask[a, cols],
                                       s2.vals[gm][b, cols], s2.mask[b, cols],
                                       starts[b0:b1] - starts[b0])[ri, si]
                rr, ss = rc[ri], si + b0
                pr.lb[rr, ss] = ex
                pr.ub[rr, ss] = ex
                pr.done[rr, ss] = True
        self.stats.refine_steps += len(rows)
        self.stats.segments_refined += int(np.count_nonzero(take))
        self.stats.tuples_compared += int(rem[take].sum())
        self.lb_sum[rows] = pr.lb[rows].sum(axis=1)
        self.ub_sum[rows] = pr.ub[rows].sum(axis=1)
        self._rescore(rows)

    def topk(self, alive: np.ndarray, thr: float, k: int, budget: float) -> np.ndarray:
        """Refine the k best optimistic bounds, one chunk each per round,
        until those k are all exact; return them, best first.

        Candidates come from a pool of the _POOL·k best optimistic bounds,
        sorted once per rebuild: a pair outside the pool is never refined,
        so its bound stays below the pool's cut, and the pool serves while k
        of its pairs remain at or above the cut. Bounds only tighten, so the
        threshold ``thr`` (k-th best pessimistic bound) only rises: pruning
        can wait for the next rebuild.
        """
        pr, opt, pess = self.pr, self.opt, self.pess
        n_live = len(alive)
        ptop = _best(alive, pess, pr.rank, k)  # the k best pessimistic bounds
        order, h, touched, cut = alive[:0], 0, alive[:0], np.inf
        while True:
            floor = thr - _prune_slack(thr)
            touched = touched[opt[touched] >= max(cut, floor)]
            head = order[h:h + k]
            if floor > cut:
                head = head[opt[head] >= floor]
            if len(head) + len(touched) < k and cut > -np.inf:
                alive = alive[opt[alive] >= floor]
                cut = _kth(opt[alive], _POOL * k)
                pool = alive[opt[alive] >= cut]
                order, h, touched = pool[np.lexsort((pr.rank[pool], -opt[pool]))], 0, alive[:0]
                continue
            cand = np.concatenate((head, touched))
            pos = _best_pos(opt[cand], pr.rank[cand], k)
            top = cand[pos]
            fresh = pos < len(head)  # a prefix of head: the best untouched
            h += int(np.count_nonzero(fresh))
            touched = np.concatenate((touched, top[fresh]))
            todo = top[~pr.done[top].all(axis=1)]
            if not len(todo):
                break
            self.refine(todo, budget)
            if pess[todo].max() > thr:
                cand = np.concatenate((ptop, todo[(todo[:, None] != ptop).all(axis=1)]))
                ptop = cand[_best_pos(pess[cand], pr.rank[cand], k)]
                thr = float(pess[ptop].min()) if len(alive) > k else -np.inf
        self.stats.pruned_refining = n_live - int(np.count_nonzero(opt[alive] >= floor))
        return top


def compare_topk_pruned(
    df: DataFrame,
    spec: CompareSpec,
    k: int = 5,
    *,
    ascending: bool = True,
    n_segments: int | None = None,
    tuples_per_update: int | None = None,
    early_termination: bool = True,
    groups: list[MergeGroup] | None = None,
    return_stats: bool = False,
):
    """Top-k comparative query through the Φp pruning operator.

    Returns a DataFrame with the canonical COMPARE output schema
    restricted to the top-k pairs (ordered best-first, ties broken by
    pair identity as in ``topk_exact``); with ``return_stats=True`` also
    returns a :class:`PruneStats`.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if spec.scorer.agg not in ("SUM", "AVG"):
        raise ValueError(
            f"Φp bounds require a SUM/AVG scorer; use the trendwise strategy "
            f"for {spec.scorer.agg}"
        )
    spark = df.sparkSession
    # Block-organized aggregates (§4.2 sharing): one relation per grouping
    # column carrying every measure, persisted for the phases below.
    blocks = build_vector_blocks(df, spec, groups)
    segs = _segments(spark, blocks, n_segments)
    stats = PruneStats()

    # ---- Summarize: one groupBy per block side -----------------------------
    sides: dict = {}  # gm -> (side1, side2)
    for blk in blocks:
        s2 = summarize(blk.rel2, spec.t2.vary_cols, blk, segs[blk.g])
        s1 = s2 if blk.shared else summarize(blk.rel1, spec.t1.vary_cols, blk, segs[blk.g])
        for gm in blk.value_cols:
            sides[gm] = (s1, s2)
            n_trends = len(s2.tids) + (0 if blk.shared else len(s1.tids))
            stats.total_trends += n_trends
            stats.summary_floats += 4 * segs[blk.g].n * n_trends

    # ---- Bound ---------------------------------------------------------------
    pr = _bound_pairs(spec, sides, segs)
    stats.n_pairs = len(pr.ia)
    phi = _Refiner(spec, sides, segs, pr, ascending, stats)

    # ---- Prune: against the k-th best pessimistic bound -------------------
    thr = _kth(phi.pess, k)
    alive = np.flatnonzero(phi.opt >= thr - _prune_slack(thr))
    stats.pruned_initial = stats.n_pairs - len(alive)

    # ---- fetch vectors for surviving trends only, one action per block side -
    surv: dict = {}  # id(side) -> surviving trend rows
    for gi, gm in enumerate(spec.gms):
        live = alive[pr.gm[alive] == gi]
        rows1, rows2 = np.unique(pr.ia[live]), np.unique(pr.ib[live])
        stats.surviving_trends += len(rows1) + len(rows2)
        s1, s2 = sides[gm]
        for s, rows in ((s1, rows1), (s2, rows2)):
            surv[id(s)] = np.union1d(surv.get(id(s), rows), rows)
    for blk in blocks:
        s1, s2 = sides[next(iter(blk.value_cols))]
        for rel, vary, s in ((blk.rel2, spec.t2.vary_cols, s2), (blk.rel1, spec.t1.vary_cols, s1)):
            rows = surv.pop(id(s), ())
            if len(rows):
                _fetch_vectors(spark, rel, vary, blk, segs[blk.g], s, rows)

    # ---- Refine ------------------------------------------------------------
    if early_termination:
        results = phi.topk(alive, thr, k, tuples_per_update or 1)
    else:
        # ablation stage: segment pruning only — score all survivors fully
        if len(alive):
            phi.refine(alive, np.inf)
        results = _best(alive, phi.opt, pr.rank, k)

    # ---- build the output relation ----------------------------------------
    rows = []
    for q in results:
        gm = spec.gms[pr.gm[q]]
        s1, s2 = sides[gm]
        score = float(score_from_sum(spec.scorer, phi.lb_sum[q], pr.cnt[q]))
        rows.append(output_row(spec, s1.tids[pr.ia[q]], s2.tids[pr.ib[q]], gm, score))
    out = spark.createDataFrame(rows, output_schema(spec, df.schema))
    return (out, stats) if return_stats else out
