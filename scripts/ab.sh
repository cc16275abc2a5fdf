#!/usr/bin/env bash
# Paired A/B of one perfbench workload: a base revision against this tree.
#
#   scripts/ab.sh <workload> [pairs]     workload: a2a_casper | xl_tiles | kv_zipf
#
# The base revision is extracted with `git archive | tar -x` into a scratch
# directory (no worktree; the checkout is only read). Each pair runs the
# unmodified `perfbench/run.py --seconds S --trace 0` once on the base and
# once on this tree; odd pairs run the base first and even pairs the tree,
# so neither host drift nor run order favours one side.
# Prints, per end-to-end metric, the median and interquartile range of each
# side and how many pairs the tree won. Reports only: it gates nothing.
#
# Env knobs:
#   AB_BASE     base revision                  (default HEAD)
#   AB_SECONDS  run.py --seconds per run       (default 8)
#   AB_SEED     run.py --seed                  (default 2024)
#   AB_DIR      scratch directory              (default ${TMPDIR:-/tmp}/casper-ab)
set -euo pipefail
cd "$(dirname "$0")/.."
ROOT=$(pwd)

if [[ $# -lt 1 || $# -gt 2 ]]; then
  echo "usage: scripts/ab.sh <workload> [pairs]" >&2
  exit 2
fi
WORKLOAD=$1
PAIRS=${2:-5}
BASE=${AB_BASE:-HEAD}
SECONDS_PER_RUN=${AB_SECONDS:-8}
SEED=${AB_SEED:-2024}
DIR=${AB_DIR:-${TMPDIR:-/tmp}/casper-ab}

SHA=$(git rev-parse --verify "$BASE^{commit}")
BASE_TREE="$DIR/base-${SHA:0:12}"
if [[ ! -d "$BASE_TREE/src" ]]; then
  mkdir -p "$BASE_TREE"
  git archive "$SHA" | tar -x -C "$BASE_TREE"
fi
OUT="$DIR/out-$WORKLOAD"
rm -rf "$OUT"
mkdir -p "$OUT"

run_side() {  # <side> <source root> <pair>
  local log="$OUT/$1.$3"
  (cd "$2" && python3 perfbench/run.py --workload "$WORKLOAD" --seed "$SEED" \
     --seconds "$SECONDS_PER_RUN" --trace 0) >"$log.json" 2>"$log.err" || true
  echo "  $1: $(tail -n 1 "$log.json" | cut -c1-160)"
}

echo "ab.sh: $WORKLOAD seed $SEED, $PAIRS pairs of ${SECONDS_PER_RUN}s;" \
     "base ${SHA:0:12} vs this tree"
for p in $(seq 1 "$PAIRS"); do
  echo "pair $p/$PAIRS"
  if (( p % 2 )); then
    run_side base "$BASE_TREE" "$p"
    run_side tree "$ROOT" "$p"
  else
    run_side tree "$ROOT" "$p"
    run_side base "$BASE_TREE" "$p"
  fi
done

python3 - "$OUT" "$PAIRS" <<'EOF'
import json, statistics, sys

out, pairs = sys.argv[1], int(sys.argv[2])
# (metric, True when lower is better)
METRICS = [("wall_s", True), ("setup_s", True), ("sim_ops_per_s", False),
           ("peak_rss_mb", True), ("virt_time_us", True)]

def load(side, p):
    try:
        with open("%s/%s.%d.json" % (out, side, p)) as f:
            lines = f.read().strip().splitlines()
        return json.loads(lines[-1]) if lines else None
    except (OSError, ValueError):
        return None

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]

runs = {s: [load(s, p) for p in range(1, pairs + 1)] for s in ("base", "tree")}
for s in ("base", "tree"):
    bad = [p + 1 for p, r in enumerate(runs[s])
           if r is None or not r.get("correct") or r.get("failed", 1) != 0]
    print("%s: %d/%d runs correct with 0 failed%s"
          % (s, pairs - len(bad), pairs,
             "" if not bad else " (pairs %s are not)" % bad))

print("%-14s %12s %25s %12s %25s  %s"
      % ("metric", "base median", "base IQR", "tree median", "tree IQR",
         "tree wins"))
for name, lower in METRICS:
    vals = {s: [r["metrics"][name]["value"] if r and name in r.get("metrics", {})
                else None for r in runs[s]] for s in runs}
    wins = sum(1 for b, t in zip(vals["base"], vals["tree"])
               if b is not None and t is not None and (t < b if lower else t > b))
    cols = []
    for s in ("base", "tree"):
        xs = [v for v in vals[s] if v is not None]
        if not xs:
            cols += ["-", "-"]
            continue
        lo, hi = quartiles(xs)
        cols += ["%.6g" % statistics.median(xs), "%.6g-%.6g" % (lo, hi)]
    print("%-14s %12s %25s %12s %25s  %d/%d"
          % (name, cols[0], cols[1], cols[2], cols[3], wins, pairs))
EOF
