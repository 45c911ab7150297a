"""Middleware baseline (paper §8 setup; mimics Zenvisage/SeeDB).

The middleware issues one select-aggregate query per (side, g, m),
ships the aggregate result over the network to a client process, and
compares trends client-side (with the trendwise + summary-pruning
optimizations, as in the paper). The network is simulated: the Arrow
payload is actually serialized, a transfer delay of
``bytes / bandwidth`` is injected (the paper measured a 10 MB/s link),
and the payload is actually deserialized — reproducing the transfer +
(de)serialization bottleneck the paper attributes to this approach.
``bandwidth_mbps=None`` disables the sleep (used by correctness tests).
"""
from __future__ import annotations

import pickle
import time

import pandas as pd
from pyspark.sql import DataFrame

from repro.core.aggregates import G_COL, V_COL, build_vector_blocks
from repro.core.spec import CompareSpec

from . import client_core as cc


def _fetch(rel: DataFrame, bandwidth_mbps: float | None) -> tuple[pd.DataFrame, int]:
    """Collect an aggregate query result and simulate its network hop."""
    pdf = rel.toPandas()
    payload = pickle.dumps(pdf, protocol=pickle.HIGHEST_PROTOCOL)
    if bandwidth_mbps:
        time.sleep(len(payload) / (bandwidth_mbps * 1_000_000))
    return pickle.loads(payload), len(payload)


def compare_middleware(
    df: DataFrame,
    spec: CompareSpec,
    *,
    k: int | None = None,
    ascending: bool = True,
    bandwidth_mbps: float | None = 10.0,
    return_bytes: bool = False,
):
    """COMPARE computed in a middleware client. Returns a pandas frame
    (the result lives client-side), optionally with total bytes moved."""
    blocks = build_vector_blocks(df, spec, persist=False)
    total_bytes = 0
    trends: dict = {}
    for blk in blocks:
        for gm in blk.value_cols:
            p2, b2 = _fetch(blk.project(2, gm), bandwidth_mbps)
            total_bytes += b2
            if blk.shared:
                p1 = p2
            else:
                p1, b1 = _fetch(blk.project(1, gm), bandwidth_mbps)
                total_bytes += b1
            trends[gm] = (cc.group_trends(p1, spec.t1.vary_cols, G_COL, V_COL),
                          cc.group_trends(p2, spec.t2.vary_cols, G_COL, V_COL))
    out = cc.compare_trends(spec, [trends[gm] for gm in spec.gms], k, ascending)
    return (out, total_bytes) if return_bytes else out
