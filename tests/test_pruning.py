"""Φp pruning operator correctness (§5): bounds soundness, Algorithm 2
top-k exactness across directions/parameters, and pruning effectiveness."""
import math

import pytest

from repro.core.aggregates import clear_cache
from repro.core.compare import TOPK_STRATEGIES, compare, compare_topk, topk_exact
from repro.core.pruning import PruneStats, compare_topk_pruned, sturges
from repro.core.spec import Scorer

from .spec_catalog import CATALOG, fixture_for


@pytest.fixture(autouse=True)
def _release_persisted():
    yield
    clear_cache()


def _exact_topk_scores(df, spec, k, ascending):
    pdf = topk_exact(compare(df, spec, strategy="trendwise"), k, ascending).toPandas()
    return sorted(round(s, 6) for s in pdf["score"])


def _pruned_topk_scores(df, spec, k, ascending, **kw):
    pdf = compare_topk_pruned(df, spec, k, ascending=ascending, **kw).toPandas()
    return sorted(round(s, 6) for s in pdf["score"])


class TestSturges:
    @pytest.mark.parametrize("n,expected", [(1, 1), (2, 2), (64, 7), (100, 7), (1024, 11)])
    def test_formula(self, n, expected):
        assert sturges(n) == expected

    def test_degenerate(self):
        assert sturges(0) == 1


class TestTopkExactness:
    @pytest.mark.parametrize("name", ["q1", "q2", "q4", "ex1a", "ex2a", "tpcds_q1"])
    @pytest.mark.parametrize("ascending", [True, False])
    def test_matches_exact_topk(self, request, name, ascending):
        dataset, spec = CATALOG[name]
        df = request.getfixturevalue(fixture_for(dataset))
        k = 3
        assert _pruned_topk_scores(df, spec, k, ascending) == pytest.approx(
            _exact_topk_scores(df, spec, k, ascending)
        )

    @pytest.mark.parametrize("k", [1, 2, 5, 100])
    def test_k_variations(self, request, k):
        dataset, spec = CATALOG["q2"]
        df = request.getfixturevalue(fixture_for(dataset))
        assert _pruned_topk_scores(df, spec, k, True) == pytest.approx(
            _exact_topk_scores(df, spec, k, True)
        )

    @pytest.mark.parametrize("n_segments", [1, 2, 4, 16])
    def test_segment_count_sweep(self, request, n_segments):
        dataset, spec = CATALOG["q2"]
        df = request.getfixturevalue(fixture_for(dataset))
        assert _pruned_topk_scores(
            df, spec, 3, True, n_segments=n_segments
        ) == pytest.approx(_exact_topk_scores(df, spec, 3, True))

    @pytest.mark.parametrize("tpu", [1, 5, 50, 10_000])
    def test_tuples_per_update_sweep(self, request, tpu):
        dataset, spec = CATALOG["q2"]
        df = request.getfixturevalue(fixture_for(dataset))
        assert _pruned_topk_scores(
            df, spec, 3, False, tuples_per_update=tpu
        ) == pytest.approx(_exact_topk_scores(df, spec, 3, False))

    def test_no_early_termination_path(self, request):
        dataset, spec = CATALOG["q2"]
        df = request.getfixturevalue(fixture_for(dataset))
        assert _pruned_topk_scores(
            df, spec, 3, True, early_termination=False
        ) == pytest.approx(_exact_topk_scores(df, spec, 3, True))

    def test_avg_scorer(self, request):
        dataset, spec = CATALOG["avg_scorer"]
        df = request.getfixturevalue(fixture_for(dataset))
        assert _pruned_topk_scores(df, spec, 3, True) == pytest.approx(
            _exact_topk_scores(df, spec, 3, True)
        )

    def test_manhattan_scorer(self, request):
        dataset, spec = CATALOG["manhattan"]
        df = request.getfixturevalue(fixture_for(dataset))
        assert _pruned_topk_scores(df, spec, 3, False) == pytest.approx(
            _exact_topk_scores(df, spec, 3, False)
        )

    def test_multi_gm_topk_across_attributes(self, request):
        # top-k competes across (g, m) combinations (example 1b semantics)
        dataset, spec = CATALOG["q4"]
        df = request.getfixturevalue(fixture_for(dataset))
        assert _pruned_topk_scores(df, spec, 5, True) == pytest.approx(
            _exact_topk_scores(df, spec, 5, True)
        )

    @pytest.mark.parametrize(
        "strategy,k",
        [(s, 0) for s in TOPK_STRATEGIES] + [("compare", -1), ("compare", 1000), ("pruned", 1000)],
    )
    def test_k_validation(self, request, strategy, k):
        # k ≤ 0 is rejected everywhere; k beyond the pair count returns every pair
        dataset, spec = CATALOG["q2"]
        df = request.getfixturevalue(fixture_for(dataset))
        if k <= 0:
            with pytest.raises(ValueError, match="k must be positive"):
                compare_topk(df, spec, k, strategy=strategy)
            return
        got = compare_topk(df, spec, k, strategy=strategy).toPandas()
        exact = topk_exact(compare(df, spec, strategy="trendwise"), k).toPandas()
        assert len(got) == len(exact) == 8 * 7 // 2
        key = [c for c in exact.columns if c != "score"]
        assert got[key].values.tolist() == exact[key].values.tolist()
        assert got["score"].tolist() == pytest.approx(exact["score"].tolist())

    def test_minmax_scorer_rejected(self, request):
        dataset, spec = CATALOG["max_scorer"]
        df = request.getfixturevalue(fixture_for(dataset))
        with pytest.raises(ValueError, match="SUM/AVG"):
            compare_topk_pruned(df, spec, 3)

    def test_facade_compare_strategy(self, request):
        dataset, spec = CATALOG["q4"]
        df = request.getfixturevalue(fixture_for(dataset))
        pdf = compare_topk(df, spec, 3, ascending=True, strategy="compare").toPandas()
        assert sorted(round(s, 6) for s in pdf["score"]) == pytest.approx(
            _exact_topk_scores(df, spec, 3, True)
        )

    def test_facade_pruned_strategy(self, request):
        dataset, spec = CATALOG["q2"]
        df = request.getfixturevalue(fixture_for(dataset))
        pdf = compare_topk(df, spec, 3, ascending=True, strategy="pruned").toPandas()
        assert sorted(round(s, 6) for s in pdf["score"]) == pytest.approx(
            _exact_topk_scores(df, spec, 3, True)
        )


class TestBoundsSoundness:
    """Initial (pre-refinement) bounds must always contain the true score."""

    @pytest.mark.parametrize("name", ["q2", "manhattan", "tpcds_q1"])
    def test_bounds_contain_truth(self, request, name):
        dataset, spec = CATALOG[name]
        df = request.getfixturevalue(fixture_for(dataset))
        # huge k → nothing pruned → every pair refined to exactness;
        # capture initial bounds first by monkey-free re-derivation:
        out, stats = compare_topk_pruned(
            df, spec, 10_000, ascending=True, return_stats=True
        )
        exact = compare(df, spec, strategy="trendwise").toPandas()
        got = out.toPandas()
        assert len(got) == len(exact)
        assert sorted(got["score"].round(6)) == pytest.approx(
            sorted(exact["score"].round(6))
        )

    def test_initial_bounds_bracket_scores(self, request):
        """The production Summarize and Bound phases bracket every exact
        score of the q2 fixture."""
        import repro.core.pruning as P
        from repro.core.aggregates import build_vector_blocks

        dataset, spec = CATALOG["q2"]
        df = request.getfixturevalue(fixture_for(dataset))
        blocks = build_vector_blocks(df, spec)
        segs = P._segments(df.sparkSession, blocks, None)
        (blk,) = blocks
        side = P.summarize(blk.rel2, spec.t2.vary_cols, blk, segs[blk.g])
        pr = P._bound_pairs(spec, {spec.gms[0]: (side, side)}, segs)
        lbs, ubs = pr.lb.sum(axis=1), pr.ub.sum(axis=1)
        row = {(side.tids[a][0], side.tids[b][0]): r for r, (a, b) in enumerate(zip(pr.ia, pr.ib))}
        exact = {
            (r["l_airport"], r["r_airport"]): r["score"]
            for r in compare(df, spec, strategy="trendwise").collect()
        }
        checked = 0
        for pair, score in exact.items():
            r = row[pair]
            assert lbs[r] <= score + 1e-6 * max(1, abs(score))
            assert ubs[r] >= score - 1e-6 * max(1, abs(score))
            checked += 1
        assert checked > 10


class TestPruneStats:
    def test_pruning_actually_prunes(self, request):
        dataset, spec = CATALOG["q2"]
        df = request.getfixturevalue(fixture_for(dataset))
        _, stats = compare_topk_pruned(
            df, spec, 1, ascending=True, return_stats=True
        )
        assert isinstance(stats, PruneStats)
        assert stats.n_pairs == 8 * 7 // 2
        assert stats.pruned_initial + stats.pruned_refining > 0
        assert stats.summary_floats > 0

    def test_early_termination_reduces_tuple_work(self, request):
        dataset, spec = CATALOG["q2"]
        df = request.getfixturevalue(fixture_for(dataset))
        _, et = compare_topk_pruned(df, spec, 1, ascending=True, return_stats=True)
        _, full = compare_topk_pruned(
            df, spec, 1, ascending=True, early_termination=False, return_stats=True
        )
        assert et.tuples_compared <= full.tuples_compared

    def test_memory_overhead_is_logarithmic(self, request):
        dataset, spec = CATALOG["q2"]
        df = request.getfixturevalue(fixture_for(dataset))
        _, stats = compare_topk_pruned(df, spec, 1, ascending=True, return_stats=True)
        n_trends = 8
        n = df.count()
        # §5.3: O(p × log(n/p)) summary floats
        assert stats.summary_floats <= 4 * n_trends * (1 + math.log2(max(2, n)))
