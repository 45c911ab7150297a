"""Spark session lifecycle and per-process CPU accounting for the benchmark.

The benchmark owns its Spark session: ``local[N]`` with N = min(4, nproc),
a small driver heap, and every scratch directory (Spark local dirs, JVM and
Python temp files) inside the checkout's ``.perfbench/`` directory. Spark's
Python workers inherit ``PYTHONPATH`` so they can import ``repro`` from
``src/``.
"""
from __future__ import annotations

import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
CORES = max(1, min(4, os.cpu_count() or 1))
DRIVER_MEM = "2g"
_TICK = os.sysconf("SC_CLK_TCK")


def prepare_env() -> None:
    """Point imports and scratch space at the checkout, before the JVM starts."""
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p
    )
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{CORES}] --driver-memory {DRIVER_MEM} "
        f"--conf spark.driver.host=127.0.0.1 "
        f"--conf spark.driver.extraJavaOptions=-Djava.io.tmpdir={tmp} "
        "pyspark-shell"
    )


def start_spark():
    """Start the session with the settings the repo's tests and jobs use."""
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.local.dir", os.path.join(OUT, "spark-local"))
        .config("spark.sql.warehouse.dir", os.path.join(OUT, "warehouse"))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.sql.shuffle.partitions", str(CORES))
        .config("spark.sql.adaptive.coalescePartitions.parallelismFirst", "false")
        # keep every job/stage of a traced run readable from the status tracker
        .config("spark.ui.retainedJobs", "100000")
        .config("spark.ui.retainedStages", "100000")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def jvm_pid() -> int:
    from pyspark import SparkContext

    return SparkContext._gateway.proc.pid


def stop_spark(spark) -> None:
    """Stop Spark, end the JVM and wait until it and its Python workers exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    proc = gateway.proc
    tree = descendants(proc.pid)
    spark.stop()
    gateway.shutdown()
    proc.stdin.close()  # the gateway JVM exits when its stdin closes
    proc.wait(timeout=60)
    deadline = time.monotonic() + 30
    while tree and time.monotonic() < deadline:
        tree = [p for p in tree if os.path.exists(f"/proc/{p}")]
        time.sleep(0.05)


def _stat(pid: int) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat") as f:
            raw = f.read()
    except OSError:
        return None
    return raw[raw.rfind(")") + 2:].split()


def descendants(root: int) -> list[int]:
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            st = _stat(int(name))
            if st is not None:
                children.setdefault(int(st[1]), []).append(int(name))
    out, todo = [], list(children.get(root, []))
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(children.get(pid, []))
    return out


def cpu_split(jvm: int) -> tuple[float, float, float]:
    """Cumulative CPU seconds of (driver Python, Spark JVM, Python workers).

    Workers are every process below the JVM; exited ones are counted through
    their parent's ``cutime``/``cstime`` once reaped.
    """
    ru = resource.getrusage(resource.RUSAGE_SELF)
    st = _stat(jvm)
    jvm_s = (int(st[11]) + int(st[12])) / _TICK if st else 0.0
    workers = 0
    for pid in descendants(jvm):
        st = _stat(pid)
        if st is not None:
            workers += sum(int(x) for x in st[11:15])
    return ru.ru_utime + ru.ru_stime, jvm_s, workers / _TICK


def reset_rss_peak() -> bool:
    """Reset the kernel's peak-RSS mark for this process (Linux clear_refs)."""
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
        return True
    except OSError:
        return False


def rss_peak_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
