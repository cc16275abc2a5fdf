#!/usr/bin/env bash
# Full local gate: tier-1 tests, the conformance fuzzer at its fixed seed
# corpus (clean and faulted), the chaos/fault matrix, ASan builds running
# the fuzzer smoke corpus and a ghost-failure soak, and a TSan build of the
# sharded engine + runtime determinism suites. Run from the repo root:
#   scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD=build
BUILD_ASAN=build-asan
JOBS=$(nproc 2>/dev/null || echo 4)

echo "== [1/14] tier-1: build + ctest =="
cmake -B "$BUILD" -S . >/dev/null
cmake --build "$BUILD" -j"$JOBS"
ctest --test-dir "$BUILD" --output-on-failure -j"$JOBS"

echo "== [2/14] conformance fuzzer: fixed seed corpus =="
# A larger sweep than the ctest-time run; still deterministic (fixed base
# seed), so failures here are reproducible verbatim. Repros left by earlier
# runs are cleared so stage 8 replays exactly what this run wrote.
rm -f "$BUILD"/tests/casper_*repro*.txt
"./$BUILD/tests/fuzz_conformance" --base-seed 1 --cases 500 --schedules 8 \
  --out "$BUILD/tests"

echo "== [3/14] conformance fuzzer: faulted corpus (--faults) =="
# The same generator under seed-derived lossy networks (drops, duplicates,
# delayed/reordered AMs, lost acks): the reliable AM layer must keep the
# shadow oracle clean on every mix. Any repro embeds the FaultPlan. The
# fault-proof already ran in stage 2; skip repeating it here.
"./$BUILD/tests/fuzz_conformance" --base-seed 1 --cases 200 --schedules 2 \
  --faults --no-fault-proof --out "$BUILD/tests"

echo "== [4/14] race analyzer: planted-race and false-positive gates =="
# Positive gate: every case carries 2 planted same-epoch conflicting pairs
# and the online race analyzer must flag each of them in every schedule (a
# miss is minimized and written as a "race-miss" repro). The negative gate is
# implicit in stages 2-3: the analyzer rides along on every clean fuzz run,
# and any conflict there fails the campaign as a "race-conflict" repro.
"./$BUILD/tests/fuzz_conformance" --base-seed 1 --cases 100 --schedules 4 \
  --races 2 --out "$BUILD/tests"
"./$BUILD/tests/test_race_analyzer"

echo "== [5/14] chaos matrix + ghost failure/recovery suites =="
# {drop,dup,reorder,delay} x {PUT,ACC,GET_ACC,FAO,CAS} x {lock,lockall,
# fence} under the oracle, plus ghost kills across 64 seeds, last-ghost
# degradation, and kills composed with a lossy network (DESIGN.md §11).
"./$BUILD/tests/test_fault_matrix"
"./$BUILD/tests/test_ghost_failure"

echo "== [6/14] KV store + linearizability checker =="
# The RMA-backed sharded KV store under skewed traffic with the Wing-Gong
# linearizability checker riding every run (DESIGN.md §14): the unit suites,
# a wider clean --kv corpus than the ctest-time slice (the planted-bug
# proof runs after the first campaign), and the faulted corpus
# (lossy network + seed-derived chaos) which must stay violation-free
# through retry and recovery.
"./$BUILD/tests/test_kv"
"./$BUILD/tests/test_linear_checker"
"./$BUILD/tests/fuzz_conformance" --base-seed 1 --kv 200 --schedules 4 \
  --out "$BUILD/tests"
"./$BUILD/tests/fuzz_conformance" --base-seed 1 --kv 100 --schedules 2 \
  --faults --no-fault-proof --out "$BUILD/tests"

echo "== [7/14] adaptive progress control: unit suite + forced-on fuzz =="
# The online controller (DESIGN.md §15): decision invariance across fiber
# schedules and engine shards, plan-cache invalidation on rebind, KV
# linearizability, and the ghost-kill chaos composition in the unit suite;
# then the conformance corpus with the controller forced on for EVERY case
# (seed streams only draw it for ~25%): oracle, race analyzer, and
# cross-schedule content checks must stay as clean as the static runs. The
# fault-proof is skipped here -- the injected static-binding bug has no
# surface under the controller's map (stage 2 already ran it).
"./$BUILD/tests/test_adaptive"
"./$BUILD/tests/fuzz_conformance" --base-seed 1 --cases 150 --schedules 4 \
  --adaptive --no-fault-proof --out "$BUILD/tests"

echo "== [8/14] MWCAS library: unit battery + clean/lockfree corpora =="
# The descriptor-based multi-word CAS layer (DESIGN.md §16): the unit/chaos/
# recovery battery (helping with a dead origin, die-at-every-install replay,
# MS-queue linearizability, 64-schedule exactness), a wider clean --mwcas
# corpus than the ctest-time slice (the three planted protocol bugs are
# proven caught inside the first campaign), the KV store's lock-free
# bucket mode over the same seeds the locked campaign runs in stage 6, and a
# replay of every repro file the fuzz stages wrote.
"./$BUILD/tests/test_mwcas"
"./$BUILD/tests/fuzz_conformance" --base-seed 1 --mwcas 100 --schedules 4 \
  --out "$BUILD/tests"
"./$BUILD/tests/fuzz_conformance" --base-seed 1 --kv 100 --schedules 2 \
  --lockfree --out "$BUILD/tests"
# Every repro stages 2, 6 and 8 wrote (the planted-bug proofs of all three
# workloads) must replay through the CLI's one dispatcher.
for f in "$BUILD"/tests/casper_*repro*.txt; do
  out=$("./$BUILD/tests/fuzz_conformance" --replay "$f") || true
  echo "$out"
  [[ "$out" == *": REPRODUCED ("* ]] || { echo "replay failed: $f"; exit 1; }
done

echo "== [9/14] ASan: fuzzer smoke corpus + ghost-failure soak =="
cmake -B "$BUILD_ASAN" -S . -DCASPER_ASAN=ON >/dev/null
cmake --build "$BUILD_ASAN" -j"$JOBS" --target fuzz_conformance \
  test_check_oracle test_race_analyzer test_fault_matrix \
  test_ghost_failure test_kv test_linear_checker test_adaptive test_mwcas
"./$BUILD_ASAN/tests/test_check_oracle"
# The interval-treap recorder (insert/coalesce/prune) under ASan, plus a racy
# slice: planted-race detection must hold with sanitized allocation patterns.
"./$BUILD_ASAN/tests/test_race_analyzer"
"./$BUILD_ASAN/tests/fuzz_conformance" --base-seed 3 --cases 20 \
  --schedules 2 --races 2 --out "$BUILD_ASAN/tests"
"./$BUILD_ASAN/tests/fuzz_conformance" --base-seed 1 --cases 50 \
  --schedules 4 --out "$BUILD_ASAN/tests"
# The controller's seal/decide/remap path (double-buffered boards, plan
# regeneration) under ASan, forced on for every case.
"./$BUILD_ASAN/tests/test_adaptive"
"./$BUILD_ASAN/tests/fuzz_conformance" --base-seed 5 --cases 30 \
  --schedules 2 --adaptive --no-fault-proof --out "$BUILD_ASAN/tests"
# Recovery touches freed/rebound routing state; the kill/rebind/degrade
# paths must be clean under ASan, not just functionally correct.
"./$BUILD_ASAN/tests/test_fault_matrix"
"./$BUILD_ASAN/tests/test_ghost_failure"
"./$BUILD_ASAN/tests/fuzz_conformance" --base-seed 11 --cases 30 \
  --schedules 2 --faults --no-fault-proof --out "$BUILD_ASAN/tests"
# KV + checker under ASan: the lock/probe scratch buffers must outlive each
# in-flight op (see KvStore member-buffer comment); fuzzed schedules are the
# way to catch a stack temporary sneaking back in.
"./$BUILD_ASAN/tests/test_kv"
"./$BUILD_ASAN/tests/test_linear_checker"
"./$BUILD_ASAN/tests/fuzz_conformance" --base-seed 1 --kv 20 --schedules 2 \
  --out "$BUILD_ASAN/tests"
# MWCAS descriptors recycle through gen-guarded slots; helping reads foreign
# descriptor memory mid-retire by design, so ASan over the fuzzed corpus is
# the gate that the snapshot/gen-check dance never touches freed state.
"./$BUILD_ASAN/tests/test_mwcas"
"./$BUILD_ASAN/tests/fuzz_conformance" --base-seed 1 --mwcas 15 \
  --schedules 2 --out "$BUILD_ASAN/tests"

echo "== [10/14] TSan: sharded engine + sharded runtime determinism =="
# The sharded engine is the only multi-threaded subsystem: shard workers,
# the cross-shard outbox hand-off, and the window barrier. Fiber switches
# are TSan-annotated (src/sim/fiber.cpp), so rank-fiber stacks are tracked
# correctly. Both suites sweep shards in {1,2,4,8}.
BUILD_TSAN=build-tsan
cmake -B "$BUILD_TSAN" -S . -DCASPER_TSAN=ON >/dev/null
cmake --build "$BUILD_TSAN" -j"$JOBS" --target test_sim_engine_sharded \
  test_sharded_runtime
"./$BUILD_TSAN/tests/test_sim_engine_sharded"
"./$BUILD_TSAN/tests/test_sharded_runtime"

echo "== [11/14] trace-enabled fuzz smoke (CASPER_TRACE=1) =="
# Same corpus slice with the recorder attached: exercises every obs
# instrumentation site under fuzzed schedules, and any repro written here
# embeds the virtual-time trace tail.
CASPER_TRACE=1 "./$BUILD/tests/fuzz_conformance" --base-seed 7 --cases 50 \
  --schedules 2 --out "$BUILD/tests"

echo "== [12/14] chrome-trace export: schema + casper track layout =="
cmake --build "$BUILD" -j"$JOBS" --target fig4a_passive_overlap
"./$BUILD/bench/fig4a_passive_overlap" --trace "$BUILD/fig4a_trace.json" \
  > /dev/null
python3 scripts/validate_chrome_trace.py "$BUILD/fig4a_trace.json" \
  --require-casper-tracks

echo "== [13/14] untraced Release build (-DCASPER_TRACE=0) =="
# The hot path is sprinkled with obs instrumentation behind CASPER_TRACE;
# prove the untraced production configuration still compiles and links after
# any refactor, not just the traced default.
BUILD_NT=build-notrace
cmake -B "$BUILD_NT" -S . -DCASPER_TRACE=OFF \
  -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$BUILD_NT" -j"$JOBS"
"./$BUILD_NT/tests/test_casper" >/dev/null

echo "== [14/14] perf-regression gate: BENCH_*.json ratchet =="
# Host-side perf ratchet against the committed baselines, serial (the bench
# processes are the only load), best-of-N inside bench.sh. Intentional
# re-baselines go through scripts/bench.sh --update; see DESIGN.md §9.
# With RunConfig::fault unset every fault branch is behind one null check,
# so this also guards the faults-disabled zero-cost claim (DESIGN.md §11).
scripts/bench.sh

echo "check.sh: all gates passed"
