"""Aggregation layer: merge groups, side sharing, slice derivation (§4.2).

Every relation is read through ``build_vector_blocks``, the one builder
of aggregates; a per-(g, m) relation is its block's projection.
"""
import pytest
from pyspark.sql import functions as F

from repro.core.aggregates import (
    G_COL,
    V_COL,
    MergeGroup,
    _slice_filters,
    build_vector_blocks,
    clear_cache,
    same_grouping_groups,
    single_groups,
)
from repro.core.spec import CompareSpec, ConstraintTerm, Measure, TrendsetSpec


def ts(*terms):
    return TrendsetSpec(tuple(ConstraintTerm(*t) for t in terms))


GM = lambda g, m, a="AVG": (g, Measure(a, m))


def side_rel(df, trendset, groups, gm):
    """``gm``'s relation ``(vary…, __g, __v)`` for one trendset, built by
    the block layer over ``groups``."""
    spec = CompareSpec(trendset, trendset, tuple(x for grp in groups for x in grp.gms))
    blk = next(b for b in build_vector_blocks(df, spec, groups) if gm in b.value_cols)
    return blk.project(2, gm)


@pytest.fixture(autouse=True)
def _release():
    yield
    clear_cache()


class TestMergeGroups:
    def test_single_groups(self):
        gms = (GM("day", "a"), GM("day", "b"))
        assert [g.gms for g in single_groups(gms)] == [(gms[0],), (gms[1],)]

    def test_same_grouping_groups(self):
        gms = (GM("day", "a"), GM("week", "a"), GM("day", "b"))
        groups = same_grouping_groups(gms)
        assert len(groups) == 2
        day = next(g for g in groups if g.groupings == ("day",))
        assert day.gms == (gms[0], gms[2])

    def test_measures_deduped(self):
        grp = MergeGroup((GM("day", "a"), GM("week", "a")))
        assert len(grp.measures) == 1
        assert grp.groupings == ("day", "week")


class TestSliceDetection:
    def test_q1_shape_is_slice(self):
        spec = CompareSpec(ts(("airport", "A0")), ts(("airport",)), (GM("day", "x"),))
        assert _slice_filters(spec) == {"airport": "A0"}

    def test_identical_trendsets_trivial_slice(self):
        spec = CompareSpec(ts(("airport",)), ts(("airport",)), (GM("day", "x"),))
        assert _slice_filters(spec) == {}

    def test_different_columns_not_slice(self):
        spec = CompareSpec(
            ts(("region", "Asia")), ts(("region", "Asia"), ("product",)), (GM("week", "x"),)
        )
        assert _slice_filters(spec) is None

    def test_conflicting_fixed_not_slice(self):
        spec = CompareSpec(
            ts(("region", "Asia"), ("city",)),
            ts(("region", "Europe"), ("city",)),
            (GM("week", "x"),),
        )
        assert _slice_filters(spec) is None


class TestAggregation:
    def test_direct_aggregate_matches_groupby(self, flight_df):
        gm = GM("day", "arr_delay")
        rel = side_rel(flight_df, ts(("airport",)), single_groups((gm,)), gm)
        exp = (
            flight_df.groupBy("airport", "day")
            .agg(F.avg("arr_delay").alias(V_COL))
            .withColumnRenamed("day", G_COL)
        )
        a = rel.toPandas().sort_values(["airport", G_COL]).reset_index(drop=True)
        b = exp.select(rel.columns).toPandas().sort_values(["airport", G_COL]).reset_index(drop=True)
        assert a[V_COL].round(9).tolist() == b[V_COL].round(9).tolist()

    def test_cross_grouping_reaggregation_avg_exact(self, flight_df):
        """AVG re-derived from (sum, count) partials must be exact, not an
        average of averages."""
        week = GM("week", "arr_delay")
        merged = side_rel(
            flight_df, ts(("airport",)), [MergeGroup((GM("day", "arr_delay"), week))], week
        )
        direct = side_rel(flight_df, ts(("airport",)), single_groups((week,)), week)
        key = ["airport", G_COL]
        a = merged.toPandas().sort_values(key).reset_index(drop=True)
        b = direct.toPandas().sort_values(key).reset_index(drop=True)
        assert a[V_COL].round(8).tolist() == b[V_COL].round(8).tolist()

    @pytest.mark.parametrize("agg", ["SUM", "MIN", "MAX", "COUNT"])
    def test_cross_grouping_reaggregation_other_aggs(self, flight_df, agg):
        week = GM("week", "arr_delay", agg)
        merged = side_rel(
            flight_df, ts(("airport",)), [MergeGroup((GM("day", "arr_delay", agg), week))], week
        )
        direct = side_rel(flight_df, ts(("airport",)), single_groups((week,)), week)
        key = ["airport", G_COL]
        a = merged.toPandas().sort_values(key).reset_index(drop=True)
        b = direct.toPandas().sort_values(key).reset_index(drop=True)
        assert a[V_COL].round(8).tolist() == b[V_COL].round(8).tolist()

    def test_fixed_constraint_filters_rows(self, flight_df):
        gm = GM("day", "arr_delay")
        rel = side_rel(flight_df, ts(("airport", "A0")), single_groups((gm,)), gm)
        assert rel.columns == [G_COL, V_COL]
        n_days_a0 = flight_df.filter("airport = 'A0'").select("day").distinct().count()
        assert rel.count() == n_days_a0


class TestSideSharing:
    def test_identical_trendsets_share_object(self, flight_df):
        spec = CompareSpec(ts(("airport",)), ts(("airport",)), (GM("day", "arr_delay"),))
        (blk,) = build_vector_blocks(flight_df, spec)
        assert blk.shared and blk.rel1 is blk.rel2

    def test_slice_derivation_matches_direct(self, flight_df):
        spec = CompareSpec(ts(("airport", "A0")), ts(("airport",)), (GM("day", "arr_delay"),))
        (shared,) = build_vector_blocks(flight_df, spec, share_sides=True)
        (direct,) = build_vector_blocks(flight_df, spec, share_sides=False)
        gm = spec.gms[0]
        key = [G_COL]
        a = shared.project(1, gm).toPandas().sort_values(key).reset_index(drop=True)
        b = direct.project(1, gm).toPandas().sort_values(key).reset_index(drop=True)
        assert a.columns.tolist() == b.columns.tolist() == [G_COL, V_COL]
        assert a[V_COL].round(8).tolist() == b[V_COL].round(8).tolist()
