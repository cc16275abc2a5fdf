#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/selftest.py

Run from the root of a source checkout (takes a few minutes):
  1. BENCHMARK.json names exactly the metrics run.py reports, with the same
     units, and the workloads run.py knows.
  2. Every workload's traced run (--trace 1) is correct and reports every
     per-layer metric. run.py itself fails that run unless every count and
     the virtual-time result are identical across its two traced and two
     untraced repetitions, and unless the layers claim at least 90% of each
     traced repetition's wall time (obs.unattributed_share <= 0.10).
  3. In a directory holding only BENCHMARK.json and perfbench/, run.py exits
     non-zero without printing a result.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import run  # noqa: E402


def check(cond, what):
    print("%s  %s" % ("ok  " if cond else "FAIL", what), flush=True)
    return bool(cond)


def main():
    ok = True
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ok &= check([w["name"] for w in bench["workloads"]] ==
                list(run.WORKLOADS), "BENCHMARK.json workloads")
    ok &= check([(m["name"], m["unit"]) for m in bench["end_to_end"]] ==
                run.END_TO_END, "BENCHMARK.json end_to_end metrics")
    ok &= check([(m["name"], m["unit"]) for m in bench["per_layer"]] ==
                [(n, u) for n, u, _ in run.PER_LAYER],
                "BENCHMARK.json per_layer metrics")

    for w in run.WORKLOADS:
        p = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                            "--workload", w, "--seed", "7", "--seconds", "1",
                            "--trace", "1"],
                           cwd=ROOT, capture_output=True, text=True)
        res = json.loads(p.stdout.strip().splitlines()[-1])
        ok &= check(p.returncode == 0 and res["correct"] and
                    res["failed"] == 0,
                    "%s traced run correct %s" % (w, p.stderr.strip()))
        ok &= check(set(res["metrics"]) == {n for n, _, _ in run.PER_LAYER},
                    "%s traced run reports every per-layer metric" % w)
        share = res["metrics"]["obs.unattributed_share"]["value"]
        ok &= check(share <= run.MAX_UNATTRIBUTED,
                    "%s unattributed share %.4f" % (w, share))

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".selftest_") as d:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
        shutil.copytree(HERE, os.path.join(d, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        p = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                            run.WORKLOADS[0], "--seed", "1", "--seconds", "1",
                            "--trace", "0"],
                           cwd=d, capture_output=True, text=True, timeout=180)
        ok &= check(p.returncode != 0 and "correct" not in p.stdout,
                    "run.py refuses a tree without the simulator sources")
    print("selftest: %s" % ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
