"""COMPARE benchmark: one closed-loop client against one local Spark session.

    python3 perfbench/run.py --workload table4 --seed 0 --seconds 15 --trace 0

Workloads: ``table4`` and ``pairs512`` (see workloads.py).
The client sends the next query only after the previous result has been
collected to the driver. Inputs are generated from ``--seed`` and cached in
Spark before timing; every result is checked against DuckDB running the
program's verbose SQL over the same rows, and a wrong or failed result counts
in ``error_rate``.

``--trace 0`` runs the timed loop and reports the end-to-end metrics.
``--trace 1`` runs each query once more under spans (spans.py) and reports
per-layer metrics. Both print a human-readable report, then, as the last line
of standard output, one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. The full record (environment, per-query figures, spans) is
written to ``.perfbench/results/``.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

import session

END_TO_END = (
    ("setup_s", "s"),
    ("queries_per_min", "1/min"),
    ("latency_p50_geomean_s", "s"),
    ("latency_tail_s", "s"),
    ("driver_rss_peak_mb", "MB"),
)

PER_LAYER = (
    ("compare.wall_s", "s"), ("compare.driver_cpu_s", "s"), ("compare.jvm_cpu_s", "s"),
    ("compare.pyworker_cpu_s", "s"), ("compare.driver_wait_s", "s"),
    ("compare.spark_jobs", "count"), ("compare.spark_stages", "count"),
    ("compare.spark_tasks", "count"), ("compare.speedup_vs_naive", "ratio"),
    ("plan.wall_s", "s"), ("plan.spark_jobs", "count"), ("plan.merge_groups", "count"),
    ("aggregates.wall_s", "s"), ("aggregates.jvm_cpu_s", "s"),
    ("aggregates.spark_jobs", "count"), ("aggregates.spark_tasks", "count"),
    ("aggregates.blocks", "count"), ("aggregates.block_rows", "count"),
    ("pruning.wall_s", "s"), ("pruning.driver_cpu_s", "s"),
    ("pruning.driver_s_per_kpair", "s/kpair"), ("pruning.spark_jobs", "count"),
    ("pruning.pairs", "count"), ("pruning.pruned_initial", "count"),
    ("pruning.pruned_refining", "count"), ("pruning.prune_ratio", "ratio"),
    ("pruning.surviving_trend_ratio", "ratio"), ("pruning.tuples_compared", "count"),
    ("pruning.segments_refined", "count"), ("pruning.refine_steps", "count"),
    ("pruning.summary_floats", "count"),
    ("trendwise.wall_s", "s"), ("trendwise.pyworker_cpu_s", "s"),
    ("trendwise.jvm_cpu_s", "s"), ("trendwise.spark_tasks", "count"),
    ("trendwise.scores_per_s", "1/s"),
    ("naive_sql.wall_s", "s"),
    ("trace.overhead_s", "s"), ("trace.overhead_ratio", "ratio"),
)

#: pooled samples that must lie beyond the recorded pooled tail percentile
TAIL_BEYOND = 10


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("table4", "pairs512"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="input size; 'tiny' is the self-test's")
    p.add_argument("--corrupt", action="store_true",
                   help="alter the first checked result, to test the correctness gate")
    return p.parse_args(argv)


def _source_digest() -> str:
    h = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(session.SRC, "repro")):
        dirs.sort()
        for f in sorted(files):
            if f.endswith(".py"):
                path = os.path.join(base, f)
                h.update(os.path.relpath(path, session.SRC).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def _commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=session.ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def execute(tables, q):
    from repro.core.compare import compare_topk

    return compare_topk(tables[q.dataset], q.spec, q.k, ascending=q.ascending,
                        strategy="compare", fds=q.fds).collect()


def warm_up(tables, wl) -> list[str]:
    """Run each distinct query plan of the workload once, untimed.

    It runs on the timed inputs, so the JVM compiles the plans' hot paths at
    the inputs' own sizes; after a warm-up on tiny inputs the first
    full-size executions still ran 8% slower on average. Queries that differ
    only in direction (most similar or most different) share a plan and are
    warmed once. Results are not checked or counted: a query that fails
    here fails again, counted, in the timed loop.
    """
    from repro.core.aggregates import clear_cache

    plans = {}
    for q in wl.queries:
        plans.setdefault((q.dataset, q.spec), q)
    for q in plans.values():
        with contextlib.suppress(Exception):
            execute(tables, q)
        clear_cache()
    return [q.name for q in plans.values()]


class Client:
    """Runs and checks the workload's queries; counts attempts and failures."""

    def __init__(self, tables, refs):
        self.tables, self.refs = tables, refs
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.corrupt_next = False

    def execute(self, q):
        return execute(self.tables, q)

    def record(self, q, rows) -> bool:
        """Check one result; True if it is correct."""
        import checks

        rows = [r.asDict() for r in rows]
        if self.corrupt_next and rows:
            rows[0]["score"] = rows[0]["score"] * 1.5 + 1.0
            self.corrupt_next = False
        err = checks.check(rows, self.refs[q.name])
        if err:
            self.failed += 1
            self.errors.append(f"{q.name}: {err}")
        return err is None

    def run(self, q, span=None):
        """One checked execution: (latency_s, returned, correct). Cleanup is untimed."""
        from repro.core.aggregates import clear_cache

        self.attempted += 1
        t0 = time.perf_counter()
        try:
            with span or contextlib.nullcontext():
                rows = self.execute(q)
        except Exception as e:  # a failed query is a result, not a crash
            lat = time.perf_counter() - t0
            self.failed += 1
            self.errors.append(f"{q.name}: {type(e).__name__}: {e}")
            clear_cache()
            return lat, False, False
        lat = time.perf_counter() - t0
        ok = self.record(q, rows)
        clear_cache()
        return lat, True, ok


def geomean(xs) -> float:
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def tail(pooled: list[float]) -> tuple[float, float, int]:
    """Highest percentile with TAIL_BEYOND samples beyond it: (value, pct, n).

    With too few samples for that, the maximum (percentile 100). Recorded
    with each run; ``latency_tail_s`` is the slowest query's median instead
    (see timed_loop).
    """
    xs = sorted(pooled)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, n
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def timed_loop(client, wl, seconds: float) -> tuple[dict, dict]:
    """Closed loop over the workload's queries, in order, for ``seconds``.

    It stops at the first query end after ``seconds``, but not before every
    query has run once. Latencies are those of every execution that returned
    a result, right or wrong; a query that raised has none.

    Every metric is built from each query's median latency, so that neither
    a short burst of host load nor where the loop stopped in a round moves
    it: ``queries_per_min`` is the correct share of executions per mean
    query median, and ``latency_tail_s`` is the slowest query's median. A
    pooled tail percentile would need more than TAIL_BEYOND executions per
    run, and a pooled maximum of a few multi-second queries is set by the
    host's load bursts more than by the program; it is recorded, with its
    percentile and sample count, in the run's detail.
    """
    lat = {q.name: [] for q in wl.queries}
    busy = 0.0
    runs = correct = 0
    rss_reset = session.reset_rss_peak()
    t_start = time.perf_counter()
    while runs < len(wl.queries) or time.perf_counter() - t_start < seconds:
        q = wl.queries[runs % len(wl.queries)]
        s, returned, ok = client.run(q)
        runs += 1
        busy += s
        correct += ok
        if returned:
            lat[q.name].append(s)
    rss = session.rss_peak_mb()
    pooled = [x for xs in lat.values() for x in xs] or [busy]
    medians = {name: statistics.median(xs) for name, xs in lat.items() if xs}
    typical = list(medians.values()) or [busy / runs]
    t_val, t_pct, t_n = tail(pooled)
    metrics = {
        "queries_per_min": 60.0 * (correct / runs) / statistics.fmean(typical),
        "latency_p50_geomean_s": geomean(typical),
        "latency_tail_s": max(typical),
        "driver_rss_peak_mb": rss,
    }
    detail = {"per_query_latencies_s": lat, "per_query_median_s": medians,
              "pooled_tail_s": t_val, "pooled_tail_percentile": t_pct,
              "pooled_samples": t_n, "executions": runs, "busy_s": busy,
              "rss_peak_is_timed_loop_only": rss_reset}
    return metrics, detail


def traced_pass(client, wl, spark) -> tuple[dict, dict]:
    """Each query once under a root span, then each layer's public call alone.

    Planning (multi-(g, m) queries) and Phi-p are measured by their calls
    inside the root span. Single-(g, m) queries skip planning, so it is
    called on its own for them. The block aggregation is lazy inside Phi-p,
    so it is built and materialized on its own; trendwise (exact scores for
    every pair) and the naive SQL are the alternatives the root is compared
    with.
    """
    from repro.baselines.naive_sql import compare_topk_naive_sql
    from repro.core.aggregates import build_vector_blocks, clear_cache
    from repro.core.trendwise import compare_trendwise
    from repro.plan.cost import TableStats
    from repro.plan.optimizer import merge_partition

    import spans

    tracer = spans.Tracer(spark)
    for q in wl.queries:
        df = client.tables[q.dataset]
        with spans.interposed(tracer, q.name):
            client.run(q, tracer.span("compare", q.name))
        mine = [s for s in tracer.spans if s["query"] == q.name]
        groups = next((s["groups"] for s in mine if s["name"] == "plan.merge_partition"), None)
        if groups is None:
            with tracer.span("plan.table_stats", q.name):
                stats = TableStats.from_df(df, list(q.spec.input_cols), q.fds)
            with tracer.span("plan.merge_partition", q.name) as rec:
                rec["merge_groups"] = len(merge_partition(q.spec, stats))
        with tracer.span("aggregates", q.name) as rec:
            blocks = build_vector_blocks(df, q.spec, groups)
            rows = 0
            for b in blocks:
                rows += b.rel2.count() + (0 if b.shared else b.rel1.count())
            rec.update(blocks=len(blocks), block_rows=rows)
        clear_cache()
        with tracer.span("trendwise", q.name) as rec:
            rec["scores"] = len(compare_trendwise(df, q.spec, groups).collect())
        clear_cache()
        with tracer.span("naive_sql", q.name):
            compare_topk_naive_sql(df, q.spec, q.k, q.ascending).collect()
    return layer_metrics(tracer.finish()), {"spans": tracer.spans}


def layer_metrics(all_spans: list[dict]) -> dict:
    """Per-layer sums over the workload's queries (ratios from the sums)."""
    def layer(prefix):
        return [s for s in all_spans if not s.get("lazy") and (
            s["name"] == prefix or s["name"].startswith(prefix + "."))]

    def total(spans_, key):
        return float(sum(s.get(key, 0) for s in spans_))

    root = layer("compare")
    plan, agg, prune, tw, naive = (layer(n) for n in
                                   ("plan", "aggregates", "pruning", "trendwise", "naive_sql"))
    ps = {}
    for s in prune:
        for k, v in s["prune_stats"].items():
            ps[k] = ps.get(k, 0) + v
    naive_by_q = {s["query"]: s["wall_s"] for s in naive}
    m = {f"compare.{k}": total(root, k) for k in (
        "wall_s", "driver_cpu_s", "jvm_cpu_s", "pyworker_cpu_s",
        "spark_jobs", "spark_stages", "spark_tasks")}
    m["compare.driver_wait_s"] = m["compare.wall_s"] - m["compare.driver_cpu_s"]
    m["compare.speedup_vs_naive"] = geomean(
        [naive_by_q[s["query"]] / s["wall_s"] for s in root])
    m.update({"plan.wall_s": total(plan, "wall_s"), "plan.spark_jobs": total(plan, "spark_jobs"),
              "plan.merge_groups": total(plan, "merge_groups")})
    for k in ("wall_s", "jvm_cpu_s", "spark_jobs", "spark_tasks", "blocks", "block_rows"):
        m[f"aggregates.{k}"] = total(agg, k)
    pairs = ps.get("n_pairs", 0)
    m.update({
        "pruning.wall_s": total(prune, "wall_s"),
        "pruning.driver_cpu_s": total(prune, "driver_cpu_s"),
        "pruning.driver_s_per_kpair": total(prune, "driver_cpu_s") / (pairs / 1000.0),
        "pruning.spark_jobs": total(prune, "spark_jobs"),
        "pruning.pairs": float(pairs),
        "pruning.pruned_initial": float(ps["pruned_initial"]),
        "pruning.pruned_refining": float(ps["pruned_refining"]),
        "pruning.prune_ratio": (ps["pruned_initial"] + ps["pruned_refining"]) / pairs,
        "pruning.surviving_trend_ratio": ps["surviving_trends"] / ps["total_trends"],
    })
    for k in ("tuples_compared", "segments_refined", "refine_steps", "summary_floats"):
        m[f"pruning.{k}"] = float(ps[k])
    for k in ("wall_s", "pyworker_cpu_s", "jvm_cpu_s", "spark_tasks"):
        m[f"trendwise.{k}"] = total(tw, k)
    m["trendwise.scores_per_s"] = total(tw, "scores") / m["trendwise.wall_s"]
    m["naive_sql.wall_s"] = total(naive, "wall_s")
    m["trace.overhead_s"] = total(root, "trace_overhead_s")
    m["trace.overhead_ratio"] = m["trace.overhead_s"] / (m["compare.wall_s"] - m["trace.overhead_s"])
    return m


def main(argv=None) -> int:
    a = _args(argv)
    if not os.path.isdir(os.path.join(session.SRC, "repro")):
        print(f"perfbench: no program source at {session.SRC}/repro", file=sys.stderr)
        return 2
    session.prepare_env()
    import checks
    import workloads

    wl = workloads.build(a.workload, a.seed, a.scale)
    marks, phases = [time.perf_counter()], {}

    def mark(phase):
        marks.append(time.perf_counter())
        phases[phase] = marks[-1] - marks[-2]

    spark = session.start_spark()
    try:
        session_s = time.perf_counter() - marks[0]
        data_s, tables = [], {}
        for _ in range(3 if a.trace == 0 else 1):
            for df in tables.values():
                df.unpersist(blocking=True)
            t0 = time.perf_counter()
            tables = workloads.generate(spark, wl, a.seed)
            data_s.append(time.perf_counter() - t0)
        mark("setup")
        rows = {ds: df.toPandas() for ds, df in tables.items()}
        refs = checks.references(rows, wl.queries, os.path.join(session.OUT, "duckdb-tmp"))
        client = Client(tables, refs)
        mark("references")
        warmed = warm_up(tables, wl)
        mark("warmup")
        client.corrupt_next = a.corrupt
        if a.trace == 0:
            metrics, detail = timed_loop(client, wl, a.seconds)
            metrics["setup_s"] = session_s + statistics.median(data_s)
            names = END_TO_END
        else:
            metrics, detail = traced_pass(client, wl, spark)
            names = PER_LAYER
        mark("measure")
        env = {
            "workload": wl.name, "seed": a.seed, "scale": a.scale, "trace": a.trace,
            "datasets": {ds: {"trends": n, "sf": sf, "rows": len(rows[ds])}
                         for ds, (n, sf) in wl.datasets.items()},
            "queries": [q.name for q in wl.queries], "warmup": warmed,
            "master": spark.sparkContext.master, "spark_version": spark.version,
            "commit": _commit(), "source_sha256_16": _source_digest(),
            "session_start_s": session_s, "data_setup_s": data_s, "phases_s": phases,
        }
    finally:
        session.stop_spark(spark)
    mark("stop")

    error_rate = client.failed / max(1, client.attempted)
    units = dict(names)
    print(f"# perfbench {wl.name} seed={a.seed} scale={a.scale} trace={a.trace} "
          f"{env['master']} spark={env['spark_version']} commit={env['commit']} "
          f"src={env['source_sha256_16']}")
    print(f"# datasets {json.dumps(env['datasets'])}")
    for name, med in detail.get("per_query_median_s", {}).items():
        print(f"#   {name:24s} p50 {med:8.3f} s  n={len(detail['per_query_latencies_s'][name])}")
    for sp in detail.get("spans", []):
        if sp["name"] == "compare":
            print(f"#   {sp['query']:24s} wall {sp['wall_s']:7.3f} s  driver {sp['driver_cpu_s']:6.2f}"
                  f"  jvm {sp['jvm_cpu_s']:6.2f}  pyworker {sp['pyworker_cpu_s']:5.2f} cpu-s"
                  f"  jobs {sp['spark_jobs']}")
    for name, _ in names:
        print(f"{name:32s} {metrics[name]:14.6g} {units[name]}")
    print(f"{'error_rate':32s} {error_rate:14.6g} ratio "
          f"({client.failed} of {client.attempted})")
    if a.trace == 0:
        print(f"# latency_tail_s is the slowest query's median; pooled "
              f"p{detail['pooled_tail_percentile']:.1f} of {detail['pooled_samples']} "
              f"executions is {detail['pooled_tail_s']:.3f} s")
    for e in client.errors:
        print(f"# error: {e}")
    os.makedirs(os.path.join(session.OUT, "results"), exist_ok=True)
    path = os.path.join(session.OUT, "results",
                        f"{wl.name}-seed{a.seed}-trace{a.trace}-{a.scale}.json")
    with open(path, "w") as f:
        json.dump({"env": env, "metrics": metrics, "error_rate": error_rate,
                   "attempted": client.attempted, "failed": client.failed,
                   "errors": client.errors, "detail": detail}, f, indent=1, default=str)
    result = {
        "correct": client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in names},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
