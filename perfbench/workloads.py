"""The benchmark's workloads: generated inputs and the queries run on them.

The query shapes are the paper's Table-4 queries (§8): Q1 one-to-many and
Q2 many-to-many on one (g, m); Q3 one-to-one and Q4 many-to-many on the
10 flight / 5 TPC-DS (g, m) pairs, scored by SUM OVER DIFF(2). They are
written out here, on the public spec classes, so that the benchmark's
inputs do not change when the program's own job definitions do.

Sizes are set so that one run, with its set-up, fits the benchmark's time
budget on a 4-core machine; ``tiny`` is the self-test's scale. Why each
workload was chosen is recorded in BENCHMARK.json.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import synth_data as sd
from repro.core.spec import CompareSpec, ConstraintTerm, Measure, Scorer, TrendsetSpec

FLIGHT_FDS = {"week": "day", "month": "day"}
SCORER = Scorer("SUM", 2)
K = 5


@dataclass(frozen=True)
class Query:
    name: str
    dataset: str  # "flight" | "tpcds"
    spec: CompareSpec
    ascending: bool = True  # most similar first
    fds: dict = field(default_factory=dict, hash=False)
    k: int = K


@dataclass(frozen=True)
class Workload:
    name: str
    datasets: dict  # dataset -> (n_entities, sf)
    queries: tuple


def _ts(*terms) -> TrendsetSpec:
    return TrendsetSpec(tuple(ConstraintTerm(*t) for t in terms))


def _flight_gms(n: int) -> tuple:
    return tuple((g, Measure("AVG", m)) for g in ("day", "week") for m in sd.FLIGHT_MEASURES)[:n]


def _tpcds_gms(n: int) -> tuple:
    return (
        ("ws_item_sk", Measure("AVG", "ws_net_profit")),
        ("ws_sold_date_sk", Measure("AVG", "ws_net_profit")),
        ("ws_sold_date_sk", Measure("AVG", "ws_quantity")),
        ("ws_item_sk", Measure("AVG", "ws_quantity")),
        ("ws_warehouse_sk", Measure("AVG", "ws_net_profit")),
    )[:n]


def table4_specs(dataset: str, ref) -> dict[str, CompareSpec]:
    col, gms = ("airport", _flight_gms) if dataset == "flight" else ("ws_web_page_sk", _tpcds_gms)
    many = 10 if dataset == "flight" else 5
    return {
        "Q1": CompareSpec(_ts((col, ref)), _ts((col,)), gms(1), SCORER),
        "Q2": CompareSpec(_ts((col,)), _ts((col,)), gms(1), SCORER),
        "Q3": CompareSpec(_ts((col, ref)), _ts((col, ref)), gms(many), SCORER),
        "Q4": CompareSpec(_ts((col,)), _ts((col,)), gms(many), SCORER),
    }


# (n_entities, sf) per dataset and scale. pairs512 keeps the 512-airport
# probe's density (~289 rows, ~240 of 365 days per airport) at 128 airports.
SIZES = {
    "full": {"dense": 24, "dense_sf": 0.004, "ragged": 128, "ragged_sf": 0.005},
    "tiny": {"dense": 12, "dense_sf": 0.001, "ragged": 16, "ragged_sf": 0.000625},
}


def ref_entities(seed: int, n_airports: int, n_pages: int) -> tuple[str, int]:
    rng = np.random.default_rng(seed)
    return f"A{int(rng.integers(n_airports))}", 1 + int(rng.integers(n_pages))


def build(name: str, seed: int, scale: str = "full") -> Workload:
    z = SIZES[scale]
    if name == "pairs512":
        spec = table4_specs("flight", "A0")["Q2"]
        queries = (
            Query("flight.Q2.similar", "flight", spec, True, FLIGHT_FDS),
            Query("flight.Q2.different", "flight", spec, False, FLIGHT_FDS),
        )
        return Workload(name, {"flight": (z["ragged"], z["ragged_sf"])}, queries)
    if name != "table4":
        raise ValueError(f"unknown workload {name!r}")
    ref_airport, ref_page = ref_entities(seed, z["dense"], z["dense"])
    specs = {
        "flight": table4_specs("flight", ref_airport),
        "tpcds": table4_specs("tpcds", ref_page),
    }
    queries = tuple(
        Query(f"{ds}.{q}", ds, s, True, FLIGHT_FDS if ds == "flight" else {})
        for ds in ("flight", "tpcds") for q, s in specs[ds].items()
    )
    datasets = {"flight": (z["dense"], z["dense_sf"]), "tpcds": (z["dense"], z["dense_sf"])}
    return Workload(name, datasets, queries)


def generate(spark, wl: Workload, seed: int) -> dict:
    """Generate and cache the workload's input tables (deterministic in seed)."""
    out = {}
    for ds, (n, sf) in wl.datasets.items():
        if ds == "flight":
            df = sd.flights(spark, sf=sf, seed=1000 * seed + 11, n_airports=n)
        else:
            df = sd.websales(spark, sf=sf, seed=1000 * seed + 21, n_pages=n)
        df = df.cache()
        df.count()
        out[ds] = df
    return out
