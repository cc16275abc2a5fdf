#!/usr/bin/env python3
"""Repository benchmark for the Casper simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first call builds the driver
(perfbench/casper_perf.cpp plus the simulator libraries from src/) into
.bench_build/. Each repetition of a workload is one casper_perf process, so
peak RSS and set-up are measured afresh every time; repetitions continue
until S seconds have passed (at least MIN_REPS of them).

--trace 0 reports the end-to-end metrics (medians over the repetitions).
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones; it also checks that every count and
the virtual-time result are identical across all of them and that the layers
claim at least 90% of the traced wall time.

Every repetition is checked (window contents, atomicity violations,
linearizability, shadow oracle, determinism across repetitions, and the
recorded virtual time for the default and held-out seeds in
perfbench/expected.json). A repetition that fails a check, crashes or times
out counts all its operations as failed. The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
DRIVER = os.path.join(BUILD, "casper_perf")

WORKLOADS = ("a2a_casper", "xl_tiles", "kv_zipf")

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("sim_ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("virt_time_us", "us"),
]

# Per-layer metrics: (name, unit, is_count). Counts must repeat exactly.
PER_LAYER = [
    ("sim.decisions", "count", True),
    ("sim.rank_resumes", "count", True),
    ("sim.event_callbacks", "count", True),
    ("sim.ns_per_decision", "ns", False),
    ("sim.loop_host_s", "s", False),
    ("sim.barrier_wait_host_s", "s", False),
    ("sim.window_crossings", "count", True),
    ("mpi.init_host_s", "s", False),
    ("mpi.issue_host_s", "s", False),
    ("mpi.sync_host_s", "s", False),
    ("mpi.coll_host_s", "s", False),
    ("mpi.event_host_s", "s", False),
    ("mpi.rank_boot_host_s", "s", False),
    ("mpi.teardown_host_s", "s", False),
    ("mpi.sw_ops", "count", True),
    ("mpi.hw_ops", "count", True),
    ("mpi.ns_per_op", "ns", False),
    ("core.win_alloc_host_s", "s", False),
    ("core.win_free_host_s", "s", False),
    ("core.rss_after_setup_mb", "MB", False),
    ("core.ghost_host_s", "s", False),
    ("core.redirected_ops", "count", True),
    ("core.plan_cache_hit", "count", True),
    ("core.plan_cache_miss", "count", True),
    ("core.plan_cache_lookups", "count", True),
    ("core.plan_cache_hit_ratio", "ratio", True),
    ("check.linear_host_s", "s", False),
    ("check.observer_host_s", "s", False),
    ("check.linear_ops_checked", "count", True),
    ("check.oracle_validations", "count", True),
    ("kv.open_host_s", "s", False),
    ("kv.op_host_s", "s", False),
    ("kv.close_host_s", "s", False),
    ("kv.lock_acquires", "count", True),
    ("kv.lock_retries", "count", True),
    ("kv.lock_attempts", "count", True),
    ("kv.lock_success_ratio", "ratio", True),
    ("app.host_s", "s", False),
    ("obs.trace_records", "count", True),
    ("obs.trace_dropped", "count", True),
    ("obs.trace_overhead_ratio", "ratio", False),
    ("obs.unattributed_share", "ratio", False),
]

MIN_REPS = 3           # untraced repetitions per run (medians need three)
MIN_TRACED_PAIRS = 2   # untraced + traced pairs per --trace 1 run
RUN_BUDGET_S = 170.0   # a run must end well within 180 s
MAX_UNATTRIBUTED = 0.10


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then bring the driver up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no simulator sources (src/) next to perfbench/; "
            "run from the root of a source checkout")
        return False
    os.makedirs(BUILD, exist_ok=True)
    blog = os.path.join(BUILD, "perfbench_build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "casper_perf"])
    with open(blog, "a") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log("perfbench: build failed: %s (see %s)"
                    % (" ".join(cmd), blog))
                return False
    return os.path.isfile(DRIVER)


def one_rep(workload, seed, traced, timeout):
    """Run casper_perf once; returns its JSON record or a failure record."""
    cmd = [DRIVER, "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--trace")
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True,
                           timeout=max(1.0, timeout), cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"ok": False, "failures": ["timed out"]}
    rec = None
    lines = p.stdout.strip().splitlines()
    if lines:
        try:
            rec = json.loads(lines[-1])
        except ValueError:
            rec = None
    if rec is None:
        tail = p.stderr.strip().splitlines()[-3:]
        return {"ok": False,
                "failures": ["exit %d, no result: %s"
                             % (p.returncode, " | ".join(tail))]}
    if p.returncode != 0 and rec.get("ok"):
        rec["ok"] = False
        rec["failures"] = ["exit %d" % p.returncode]
    return rec


def expected_virt(workload, seed):
    with open(os.path.join(HERE, "expected.json")) as f:
        exp = json.load(f)
    return exp["virt_time_us"].get(workload, {}).get(str(seed))


def check_reps(reps, workload, seed, traced_counts_too):
    """Cross-repetition checks; returns failure strings (all reps fail)."""
    good = [r for r in reps if r.get("ok")]
    if not good:
        return []
    fails = []
    ref = good[0]
    want = expected_virt(workload, seed)
    if want is not None and ref["virt_time_us"] != want:
        fails.append("virt_time_us %r != recorded %r"
                     % (ref["virt_time_us"], want))
    for r in good[1:]:
        if r["virt_time_us"] != ref["virt_time_us"]:
            fails.append("virt_time_us differs across repetitions")
        if r["counts"] != ref["counts"]:
            fails.append("counts differ across repetitions")
    if traced_counts_too:
        traced = [r for r in good if r.get("traced")]
        for r in traced[1:]:
            for name, _, is_count in PER_LAYER:
                if is_count and r["layers"].get(name) != \
                        traced[0]["layers"].get(name):
                    fails.append("%s differs across traced runs" % name)
        for r in traced:
            share = r["layers"]["obs.unattributed_share"]
            if share > MAX_UNATTRIBUTED:
                fails.append("unattributed share %.3f > %.2f"
                             % (share, MAX_UNATTRIBUTED))
    return sorted(set(fails))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    if not build():
        return 2

    t_start = time.monotonic()
    deadline = t_start + args.seconds
    reps = []
    traced_run = args.trace == 1
    while True:
        n = len(reps)
        traced = traced_run and n % 2 == 1
        left = RUN_BUDGET_S - (time.monotonic() - t_start)
        rep = one_rep(args.workload, args.seed, traced, left)
        reps.append(rep)
        if not rep.get("ok"):
            log("perfbench: %s seed %d: repetition %d failed: %s"
                % (args.workload, args.seed, n, "; ".join(rep["failures"])))
        now = time.monotonic()
        need = 2 * MIN_TRACED_PAIRS if traced_run else MIN_REPS
        done = len(reps) >= need and now >= deadline and \
            (not traced_run or len(reps) % 2 == 0)
        per_rep = (now - t_start) / len(reps)
        if done or now - t_start + per_rep > RUN_BUDGET_S:
            break

    cross = check_reps(reps, args.workload, args.seed, traced_run)
    if cross:
        log("perfbench: %s seed %d: %s"
            % (args.workload, args.seed, "; ".join(cross)))
    ops = max((r.get("app_ops", 0) for r in reps), default=0)
    if ops == 0:
        log("perfbench: no repetition produced a result")
        return 1
    attempted = ops * len(reps)
    ok_reps = [] if cross else [r for r in reps if r.get("ok")]
    failed = attempted - ops * len(ok_reps)

    # Failed repetitions still report what they measured; `correct` and
    # `failed` carry the verdict.
    metrics = {}
    measured = [r for r in reps if "wall_s" in r]
    untraced = [r for r in measured if not r.get("traced")]
    traced = [r for r in measured if r.get("traced")]
    if not traced_run and untraced:
        for name, unit in END_TO_END:
            metrics[name] = {"value": statistics.median(
                r[name] for r in untraced), "unit": unit}
    elif traced and untraced:
        for name, unit, _ in PER_LAYER:
            if name == "obs.trace_overhead_ratio":
                value = statistics.median(r["wall_s"] for r in traced) / \
                    statistics.median(r["wall_s"] for r in untraced)
            else:
                value = statistics.median(r["layers"][name] for r in traced)
            metrics[name] = {"value": value, "unit": unit}
        for s, row in enumerate(traced[0].get("shard_layers", [])):
            busy = {k: round(v, 3) for k, v in row.items() if v > 0}
            print("shard %d layers (s): %s" % (s, json.dumps(busy)))

    print("workload=%s seed=%d reps=%d (traced %d) failed_reps=%d"
          % (args.workload, args.seed, len(reps),
             sum(1 for r in reps if r.get("traced")),
             len(reps) - len(ok_reps)))
    for name, m in metrics.items():
        print("  %-28s %16.6f %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
