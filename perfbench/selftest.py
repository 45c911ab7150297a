"""Self-test of the benchmark at tiny scale.

    python3 perfbench/selftest.py

For every workload it checks that an untraced run emits every end-to-end
metric and a traced run every per-layer metric, with the units and names
BENCHMARK.json declares, and that two traced runs with the same seed give
exactly the same Spark job/stage/task counts and Phi-p counters. It checks
that a deliberately corrupted result is counted in ``error_rate``, and that
the benchmark fails without printing a result when the program's source is
missing. Exits non-zero on the first failed check.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SEED = 7


def run(workload: str, trace: int, *extra: str) -> tuple[dict, str]:
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(SEED), "--seconds", "1",
           "--trace", str(trace), "--scale", "tiny", *extra]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if p.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {p.returncode}:\n{p.stderr[-3000:]}")
    return json.loads(p.stdout.strip().splitlines()[-1]), p.stdout


def error_rate(stdout: str) -> float:
    line = next(x for x in stdout.splitlines() if x.startswith("error_rate "))
    return float(line.split()[1])


def expect(cond: bool, msg: str) -> None:
    if not cond:
        raise AssertionError(msg)
    print(f"ok   {msg}", flush=True)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    sys.path.insert(0, HERE)
    import run as runmod

    declared_e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    expect(declared_e2e == dict(runmod.END_TO_END), "BENCHMARK.json end_to_end matches run.py")
    expect(declared_layer == dict(runmod.PER_LAYER), "BENCHMARK.json per_layer matches run.py")
    names = [w["name"] for w in bench["workloads"]]
    expect(names == ["table4", "pairs512"], "BENCHMARK.json names the workloads")

    for w in names:
        res, out = run(w, 0)
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        expect(got == declared_e2e, f"{w}: every end-to-end metric emitted with its unit")
        expect(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
               f"{w}: all {res['attempted']} results match DuckDB")
        expect(all(v["value"] > 0 for v in res["metrics"].values()),
               f"{w}: end-to-end metrics are positive")
        expect(error_rate(out) == 0, f"{w}: error_rate printed and 0")
        first, _ = run(w, 1)
        second, _ = run(w, 1)
        got = {k: v["unit"] for k, v in first["metrics"].items()}
        expect(got == declared_layer, f"{w}: every per-layer metric emitted with its unit")
        expect(first["correct"], f"{w}: traced results match DuckDB")
        counts = [n for n, u in declared_layer.items() if u == "count"]
        diff = {n: (first["metrics"][n]["value"], second["metrics"][n]["value"])
                for n in counts if first["metrics"][n]["value"] != second["metrics"][n]["value"]}
        expect(not diff, f"{w}: {len(counts)} counts repeat exactly with the same seed {diff}")

    res, out = run("pairs512", 0, "--corrupt")
    expect(res["failed"] >= 1 and not res["correct"], "a corrupted result is counted as failed")
    expect(error_rate(out) > 0, f"a corrupted result raises error_rate ({error_rate(out)})")

    bare = os.path.join(ROOT, ".perfbench", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "table4",
                        "--seed", "0", "--seconds", "1", "--trace", "0"],
                       cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    expect(p.returncode != 0 and not p.stdout.strip(),
           "without the program's source the benchmark fails and prints no result")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
