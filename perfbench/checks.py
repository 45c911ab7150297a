"""Reference answers from DuckDB and the check of every timed result.

Each distinct query's reference is computed once, before timing, by DuckDB
running the program's verbose Fig.-3 SQL (``verbose_sql``, all pair scores)
and its top-k wrapper (``topk_sql``) over the same generated rows.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass

import duckdb

from repro.core.spec import output_cols
from repro.core.sql_gen import topk_sql, verbose_sql

REL_TOL = 1e-6


def _key(row: dict, cols: list[str]) -> tuple:
    return tuple(str(row[c]) for c in cols)


@dataclass
class Reference:
    """All pair scores plus the top-k identities of one query."""

    scores: dict
    topk: list
    key_cols: list[str]


def references(tables: dict, queries, tmp_dir: str) -> dict[str, Reference]:
    """tables: dataset -> pandas DataFrame of the generated rows."""
    os.makedirs(tmp_dir, exist_ok=True)
    con = duckdb.connect()
    try:
        con.execute(f"SET temp_directory = '{tmp_dir}'")
        out = {}
        for q in queries:
            con.register("R", tables[q.dataset])
            cols = [c for c in output_cols(q.spec) if c != "score"]
            full = con.execute(verbose_sql(q.spec, "R", "duckdb")).fetchdf()
            scores = {_key(r, cols): float(r["score"]) for r in full.to_dict("records")}
            top = con.execute(topk_sql(q.spec, q.k, q.ascending, "R", "duckdb")).fetchdf()
            topk = [_key(r, cols) for r in top.to_dict("records")]
            con.unregister("R")
            out[q.name] = Reference(scores, topk, cols)
        return out
    finally:
        con.close()


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-9)


def check(rows: list[dict], ref: Reference) -> str | None:
    """None if the result matches the reference, else what is wrong.

    Every returned pair must exist with its reference score, and the result
    must hold the reference's top-k pair identities; a pair may differ from
    them only where its score ties the k-th reference score.
    """
    got = {}
    for r in rows:
        key = _key(r, ref.key_cols)
        if key in got:
            return f"duplicate pair {key}"
        got[key] = r["score"]
    for key, s in got.items():
        want = ref.scores.get(key)
        if want is None:
            return f"pair {key} is not in the reference"
        if s is None or not _close(float(s), want):
            return f"pair {key} scored {s}, reference {want}"
    if len(got) != len(ref.topk):
        return f"{len(got)} pairs, reference top-k has {len(ref.topk)}"
    if ref.topk:
        kth = ref.scores[ref.topk[-1]]
        for key in set(got) ^ set(ref.topk):
            if not _close(ref.scores[key], kth):
                return f"pair {key} differs from the reference top-k"
    return None
