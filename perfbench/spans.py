"""Spans for the traced run, recorded around the benchmark's calls into the
program's public functions.

A span records name, start, end, parent and query id, the CPU seconds of the
driver Python process, the Spark JVM and the Python workers, and the Spark
jobs, stages and tasks launched under it (its own job group, read back from
the status tracker). Spans nest: while a traced root call runs, the public
functions it reaches are wrapped so that their calls open child spans too.
Spans are kept in memory and written out when the run ends. The tracer's
own work (status-tracker reads, /proc scans) done while a span is open is
kept on it as ``trace_overhead_s``: the time tracing adds to that span.
"""
from __future__ import annotations

import contextlib
import importlib
import time

import session


class Tracer:
    def __init__(self, spark):
        self.sc = spark.sparkContext
        self.jvm = session.jvm_pid()
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self.bookkeeping_s = 0.0  # time spent in span entry and exit

    def _drain(self) -> None:
        # the status tracker is fed by an asynchronous listener bus
        self.sc._jsc.sc().listenerBus().waitUntilEmpty()

    def _own_counts(self, group: str) -> tuple[int, int, int]:
        tracker = self.sc.statusTracker()
        jobs = stages = tasks = 0
        for jid in tracker.getJobIdsForGroup(group):
            jobs += 1
            info = tracker.getJobInfo(jid)
            for sid in info.stageIds if info else ():
                st = tracker.getStageInfo(sid)
                if st is not None and st.numCompletedTasks > 0:
                    stages += 1
                    tasks += st.numCompletedTasks
        return jobs, stages, tasks

    @contextlib.contextmanager
    def span(self, name: str, query: str, **attrs):
        b0 = time.perf_counter()
        parent = self._stack[-1] if self._stack else None
        rec = {"id": len(self.spans), "name": name, "query": query,
               "parent": parent["id"] if parent else None, **attrs}
        self.spans.append(rec)
        group = f"perfbench-span-{rec['id']}"
        prev_group = self.sc.getLocalProperty("spark.jobGroup.id")
        self.sc.setJobGroup(group, name)
        cpu0 = session.cpu_split(self.jvm)
        self._stack.append(rec)
        t0 = time.perf_counter()
        self.bookkeeping_s += t0 - b0
        inner0 = self.bookkeeping_s
        try:
            yield rec
        finally:
            t1 = time.perf_counter()
            rec["trace_overhead_s"] = self.bookkeeping_s - inner0
            self._stack.pop()
            self._drain()
            cpu1 = session.cpu_split(self.jvm)
            jobs, stages, tasks = self._own_counts(group)
            self.sc.setLocalProperty("spark.jobGroup.id", prev_group)
            rec.update(
                start=t0, end=t1, wall_s=t1 - t0,
                driver_cpu_s=cpu1[0] - cpu0[0], jvm_cpu_s=cpu1[1] - cpu0[1],
                pyworker_cpu_s=cpu1[2] - cpu0[2],
                own_jobs=jobs, own_stages=stages, own_tasks=tasks,
            )
            self.bookkeeping_s += time.perf_counter() - t1

    def finish(self) -> list[dict]:
        """Roll each span's Spark counts up into its ancestors."""
        for rec in self.spans:
            rec.update(spark_jobs=rec["own_jobs"], spark_stages=rec["own_stages"],
                       spark_tasks=rec["own_tasks"])
        for rec in reversed(self.spans):  # children come after their parents
            if rec["parent"] is not None:
                up = self.spans[rec["parent"]]
                for c in ("spark_jobs", "spark_stages", "spark_tasks"):
                    up[c] += rec[c]
        return self.spans


@contextlib.contextmanager
def interposed(tracer: Tracer, query: str):
    """Wrap the public functions a root COMPARE call reaches, for one call.

    ``compare_topk_pruned`` is asked for its ``PruneStats`` (kept on the
    span); the caller still receives only the DataFrame. The span of the lazy
    ``build_vector_blocks`` call times plan construction only and is marked
    ``lazy``.
    """
    # repro.core re-exports a function named ``compare``, which shadows the
    # submodule as an attribute of the package
    compare_mod = importlib.import_module("repro.core.compare")
    pruning_mod = importlib.import_module("repro.core.pruning")
    cost_mod = importlib.import_module("repro.plan.cost")
    optimizer_mod = importlib.import_module("repro.plan.optimizer")

    saved = []

    def patch(owner, attr, wrapper):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def spanned(fn, name, lazy=False):
        def wrapper(*a, **kw):
            with tracer.span(name, query, lazy=lazy):
                return fn(*a, **kw)
        return wrapper

    orig_pruned = compare_mod.compare_topk_pruned

    def pruned(*a, **kw):
        with tracer.span("pruning", query) as rec:
            if kw.get("return_stats"):
                return orig_pruned(*a, **kw)
            out, stats = orig_pruned(*a, return_stats=True, **kw)
            rec["prune_stats"] = vars(stats).copy()
            return out

    orig_merge = optimizer_mod.merge_partition

    def merge(*a, **kw):
        with tracer.span("plan.merge_partition", query) as rec:
            groups = orig_merge(*a, **kw)
            rec["merge_groups"] = len(groups)
            rec["groups"] = groups
            return groups

    from_df = cost_mod.TableStats.from_df
    patch(compare_mod, "compare_topk_pruned", pruned)
    patch(pruning_mod, "build_vector_blocks", spanned(pruning_mod.build_vector_blocks,
                                                      "aggregates", lazy=True))
    patch(cost_mod.TableStats, "from_df",
          classmethod(lambda cls, *a, **kw: spanned(from_df, "plan.table_stats")(*a, **kw)))
    patch(optimizer_mod, "merge_partition", merge)
    try:
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)
