"""Every exact execution strategy must equal DuckDB on the verbose SQL.

This is the core correctness matrix: {basic, merged, trendwise,
optimized} × every catalog spec shape, plus cross-strategy agreement
checks over cross-grouping merged aggregates (the §4.2 re-aggregation
path Algorithm 1 can choose).
"""
import pytest

from repro.baselines.middleware import compare_middleware
from repro.baselines.udf import compare_udf
from repro.core.aggregates import MergeGroup, clear_cache
from repro.core.basic import compare_merged
from repro.core.compare import compare
from repro.core.spec import CompareSpec
from repro.core.trendwise import compare_trendwise

from .conftest import check_against_oracle
from .spec_catalog import CATALOG, fixture_for, m, ts

STRATEGIES = ("basic", "merged", "trendwise", "optimized")


@pytest.fixture(autouse=True)
def _release_persisted():
    yield
    clear_cache()


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("name", sorted(CATALOG))
def test_strategy_matches_oracle(request, name, strategy):
    dataset, spec = CATALOG[name]
    df = request.getfixturevalue(fixture_for(dataset))
    check_against_oracle(compare(df, spec, strategy=strategy), spec, df)


@pytest.mark.parametrize("name", ["ex1b", "q3", "q4"])
def test_cross_grouping_merge_matches_oracle(request, name):
    """Force a single merged group-by over *all* groupings (§4.2 steps 1–4:
    partial aggregates + re-aggregation) and check exactness."""
    dataset, spec = CATALOG[name]
    df = request.getfixturevalue(fixture_for(dataset))
    check_against_oracle(compare_merged(df, spec, groups=[MergeGroup(spec.gms)]), spec, df)


@pytest.mark.parametrize("name", ["ex1b", "q4"])
def test_trendwise_with_cross_grouping_merge(request, name):
    dataset, spec = CATALOG[name]
    df = request.getfixturevalue(fixture_for(dataset))
    out = compare_trendwise(df, spec, groups=[MergeGroup(spec.gms)])
    check_against_oracle(out, spec, df)


@pytest.mark.parametrize("strategy", STRATEGIES + ("udf", "middleware"))
def test_null_measure_cell_matches_oracle(spark, strategy):
    """A NULL measure cell drops out of the score, as SQL's SUM skips a NULL
    DIFF: city b's NULL week-2 AVG leaves a–b and b–c scored on weeks 1, 3."""
    df = spark.createDataFrame(
        [("a", 1, 11.0), ("a", 2, 20.0), ("a", 3, 27.0),
         ("b", 1, 10.0), ("b", 2, None), ("b", 3, 30.0),
         ("c", 1, 34.0), ("c", 2, 42.0), ("c", 3, 38.0)],
        "city string, week int, rev double",
    )
    spec = CompareSpec(ts(("city",)), ts(("city",)), (("week", m("AVG", "rev")),))
    if strategy == "udf":
        out = compare_udf(df, spec)
    elif strategy == "middleware":
        out = spark.createDataFrame(compare_middleware(df, spec, bandwidth_mbps=None))
    else:
        out = compare(df, spec, strategy=strategy)
    assert sorted(r.score for r in out.collect()) == [10.0, 640.0, 1134.0]
    check_against_oracle(out, spec, df)


def test_output_schema_canonical(request, flight_df):
    from repro.core.spec import output_cols

    _, spec = CATALOG["q1"]
    out = compare(flight_df, spec, strategy="trendwise")
    assert out.columns == output_cols(spec)
