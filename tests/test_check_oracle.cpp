// Tests for the conformance harness itself: the shadow-memory oracle, the
// schedule-perturbation hook, the fuzzer's case generator, the repro
// round-trip of every workload, and the planted-bug proof pipeline. The
// harness is only trustworthy if it (a) stays silent on correct executions
// and (b) provably fires on injected bugs.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>

#include "check/fuzz.hpp"
#include "check/kvfuzz.hpp"
#include "check/mwfuzz.hpp"
#include "check/oracle.hpp"
#include "core/casper.hpp"
#include "kv/kv.hpp"
#include "kv/traffic.hpp"
#include "mpi/runtime.hpp"
#include "net/profile.hpp"
#include "sim/engine.hpp"

using namespace casper;

namespace {

mpi::RunConfig small_rc(int nodes, int cores) {
  mpi::RunConfig rc;
  rc.machine.profile = net::cray_xc30_regular();
  rc.machine.topo.nodes = nodes;
  rc.machine.topo.cores_per_node = cores;
  return rc;
}

}  // namespace

// A correct RMA exchange must never trip the oracle, and every committed op
// must have been observed.
TEST(ShadowOracle, CleanOnCorrectExecution) {
  check::ShadowOracle oracle;
  mpi::Runtime rt(small_rc(1, 2), [](mpi::Env& env) {
    mpi::Comm w = env.world();
    const int me = env.rank(w);
    void* base = nullptr;
    mpi::Win win = env.win_allocate(64, 1, mpi::Info{}, w, &base);
    env.win_lock_all(0, win);
    const double v = 3.5;
    if (me == 0) {
      env.put(&v, 1, mpi::contig(mpi::Dt::Double), 1, 0, 1,
              mpi::contig(mpi::Dt::Double), win);
      env.accumulate(&v, 1, mpi::contig(mpi::Dt::Double), 1, 8, 1,
                     mpi::contig(mpi::Dt::Double), mpi::AccOp::Sum, win);
    }
    env.win_unlock_all(win);
    env.barrier(w);
    env.win_free(win);
  });
  rt.add_observer(&oracle);
  rt.run();
  EXPECT_TRUE(oracle.clean());
  EXPECT_GE(oracle.commits_seen(), 2u);
  EXPECT_GE(oracle.syncs_seen(), 2u);
  EXPECT_GE(oracle.validations(), 2u);
  EXPECT_GE(oracle.bytes_tracked(), 128u);
}

// Scribbling on window memory behind the runtime's back is exactly the class
// of corruption the oracle exists to see; the next sync must report it.
TEST(ShadowOracle, DetectsOutOfBandCorruption) {
  check::ShadowOracle oracle;
  mpi::Runtime rt(small_rc(1, 2), [](mpi::Env& env) {
    mpi::Comm w = env.world();
    const int me = env.rank(w);
    void* base = nullptr;
    mpi::Win win = env.win_allocate(64, 1, mpi::Info{}, w, &base);
    env.win_lock_all(0, win);
    const double v = 1.0;
    if (me == 0) {
      env.put(&v, 1, mpi::contig(mpi::Dt::Double), 1, 0, 1,
              mpi::contig(mpi::Dt::Double), win);
    }
    env.win_flush_all(win);
    if (me == 0) static_cast<unsigned char*>(base)[8] ^= 0xff;
    env.win_unlock_all(win);
    env.barrier(w);
    env.win_free(win);
  });
  rt.add_observer(&oracle);
  rt.run();
  ASSERT_FALSE(oracle.clean());
  EXPECT_EQ(oracle.divergences()[0].nbytes, 1u);
  EXPECT_EQ(oracle.divergences()[0].span_off % 64, 8u);
}

namespace {

/// The oracle without its skip, as a reference: the same shadow copy, but
/// every sync point runs the explicit full scan (ShadowOracle::validate)
/// with the text on_sync would give it.
class ScanEverySync final : public mpi::RmaObserver {
 public:
  void on_win_register(mpi::WinImpl& win) override {
    ref.on_win_register(win);
  }
  void on_win_free(mpi::WinImpl& win) override { ref.on_win_free(win); }
  void on_op_commit(const mpi::AmOp& op, sim::Time t, int entity) override {
    ref.on_op_commit(op, t, entity);
  }
  void on_sync(mpi::WinImpl& win, int world_rank, mpi::SyncKind kind, int,
               sim::Time t) override {
    ref.validate(t, std::string(mpi::to_string(kind)) + " on win " +
                        std::to_string(win.id()) + " by world rank " +
                        std::to_string(world_rank));
  }
  void on_local_access(mpi::WinImpl& win, int comm_rank, std::size_t offset,
                       std::size_t len, bool is_store, sim::Time t) override {
    ref.on_local_access(win, comm_rank, offset, len, is_store, t);
  }

  check::ShadowOracle ref;
};

/// The oracle answered every sync point the reference did, with the same
/// divergences.
void expect_same_verdicts(const check::ShadowOracle& o,
                          const ScanEverySync& r) {
  EXPECT_EQ(o.validations(), r.ref.validations());
  EXPECT_EQ(r.ref.scans(), r.ref.validations());
  EXPECT_LE(o.scans(), o.validations());
  ASSERT_EQ(o.divergences().size(), r.ref.divergences().size());
  for (std::size_t i = 0; i < o.divergences().size(); ++i) {
    const check::Divergence& a = o.divergences()[i];
    const check::Divergence& b = r.ref.divergences()[i];
    EXPECT_EQ(a.t, b.t) << i;
    EXPECT_EQ(a.where, b.where) << i;
    EXPECT_EQ(a.addr, b.addr) << i;
    EXPECT_EQ(a.nbytes, b.nbytes) << i;
  }
}

/// One node of `cores` ranks, `ghosts` of them Casper ghosts (0: original
/// MPI), rank binding in node order.
struct Machine {
  mpi::RunConfig rc;
  mpi::LayerFactory layer;
};
Machine machine(int cores, int ghosts) {
  Machine m{small_rc(1, cores), nullptr};
  if (ghosts > 0) {
    core::Config cc;
    cc.ghosts_per_node = ghosts;
    cc.binding = core::Binding::Rank;
    cc.topology_aware = false;
    m.layer = core::layer(cc);
  }
  return m;
}

/// User 0 puts one double to user 1 and flushes; nothing else syncs
/// between window creation and free.
void put_then_flush(mpi::Env& env) {
  mpi::Comm w = env.world();
  void* base = nullptr;
  mpi::Win win = env.win_allocate(64, 8, mpi::Info{}, w, &base);
  if (env.rank(w) == 0) {
    env.win_lock(mpi::LockType::Shared, 1, 0, win);
    const double v = 2.5;
    env.put(&v, 1, mpi::contig(mpi::Dt::Double), 1, 0, 1,
            mpi::contig(mpi::Dt::Double), win);
    env.win_flush(1, win);
    env.win_unlock(1, win);
  }
  env.barrier(w);
  env.win_free(win);
}

}  // namespace

// Under Casper a user flush is reported once per inner flush to the
// target's ghosts and once more for the user-level call; the outer report
// follows the inner one with nothing in between, so it needs no scan. In
// original mode every sync is its own Env call, so every sync scans.
TEST(ShadowOracle, CasperFlushSkipsOnlyTheProvablyQuietScan) {
  for (const int ghosts : {0, 1}) {
    SCOPED_TRACE("ghosts " + std::to_string(ghosts));
    const Machine m = machine(2 + ghosts, ghosts);
    check::ShadowOracle oracle;
    ScanEverySync ref;
    mpi::Runtime rt(m.rc, put_then_flush, m.layer);
    rt.add_observer(&oracle);
    rt.add_observer(&ref);
    rt.run();
    EXPECT_TRUE(oracle.clean());
    expect_same_verdicts(oracle, ref);
    if (ghosts == 0) {
      EXPECT_EQ(oracle.scans(), oracle.validations());
    } else {
      EXPECT_LT(oracle.scans(), oracle.validations());
    }
  }
}

// A small Casper KV run (locks, FAO/CAS, flushes, unlocks): every verdict of
// the skipping oracle equals the scan-every-sync reference.
TEST(ShadowOracle, SkippingMatchesFullScansOnCasperKv) {
  check::KvCase fc;
  for (std::uint64_t seed = 1;; ++seed) {
    fc = check::make_kv_case(seed, true);
    if (fc.mode == check::ProgressMode::Casper) break;
  }
  check::ShadowOracle oracle;
  ScanEverySync ref;
  mpi::Runtime rt(
      check::run_config(fc, 0),
      [&fc](mpi::Env& env) {
        kv::KvStore store(env, fc.store, env.world());
        store.open();
        kv::run_ops(env, store, fc.ops, fc.ops.size(), fc.traffic);
        store.close();
      },
      check::layer_for(fc, check::casper_config(fc)));
  rt.add_observer(&oracle);
  rt.add_observer(&ref);
  rt.run();
  EXPECT_TRUE(oracle.clean());
  EXPECT_GT(oracle.validations(), 0u);
  EXPECT_LT(oracle.scans(), oracle.validations());
  expect_same_verdicts(oracle, ref);
}

// A rank scribbles on its own window between two of its flushes with
// nothing outstanding: no scheduling decision separates the two syncs, only
// the second flush's Env entry, and that must make the second one scan.
TEST(ShadowOracle, EnvEntryMakesTheNextSyncScan) {
  std::uint64_t before = 0;
  std::uint64_t after = 0;
  const Machine m = machine(2, 0);
  check::ShadowOracle oracle;
  ScanEverySync ref;
  mpi::Runtime rt(
      m.rc,
      [&](mpi::Env& env) {
        mpi::Comm w = env.world();
        void* base = nullptr;
        mpi::Win win = env.win_allocate(64, 1, mpi::Info{}, w, &base);
        env.win_lock_all(0, win);
        if (env.rank(w) == 0) {
          env.win_flush_all(win);
          before = sim::Engine::quiet_stamp();
          static_cast<unsigned char*>(base)[8] ^= 0xff;
          env.win_flush_all(win);
          after = sim::Engine::quiet_stamp();
        }
        env.win_unlock_all(win);
        env.barrier(w);
        env.win_free(win);
      },
      m.layer);
  rt.add_observer(&oracle);
  rt.add_observer(&ref);
  rt.run();
  EXPECT_EQ(after, before + 1) << "the flushes must be one Env entry apart";
  ASSERT_EQ(oracle.divergences().size(), 1u);
  EXPECT_EQ(oracle.divergences()[0].span_off % 64, 8u);
  expect_same_verdicts(oracle, ref);
}

// User 1 scribbles on its window while user 0 is blocked inside ONE user
// flush, between that flush's inner ghost flushes, and makes no Env call
// meanwhile: only the scheduling decisions in between can make user 0's
// next sync scan. Users 0..1, ghosts 2..3; user 1 is bound to ghost 3, so
// the flush first completes the idle ghost 2, then waits for the GET at
// ghost 3.
TEST(ShadowOracle, SchedulingDecisionMakesTheNextSyncScan) {
  sim::Time flush_begin = 0;
  sim::Time flush_end = 0;
  sim::Time scribbled = 0;
  const Machine m = machine(4, 2);
  check::ShadowOracle oracle;
  ScanEverySync ref;
  mpi::Runtime rt(
      m.rc,
      [&](mpi::Env& env) {
        mpi::Comm w = env.world();
        void* base = nullptr;
        mpi::Win win = env.win_allocate(4096, 1, mpi::Info{}, w, &base);
        if (env.rank(w) == 0) {
          std::vector<std::byte> got(4096);
          env.win_lock(mpi::LockType::Shared, 1, 0, win);
          env.get(got.data(), 4096, mpi::contig(mpi::Dt::Byte), 1, 0, 4096,
                  mpi::contig(mpi::Dt::Byte), win);
          flush_begin = env.now();
          env.win_flush(1, win);
          flush_end = env.now();
          env.win_unlock(1, win);
        } else {
          env.compute(sim::us(2));  // lands inside user 0's flush
          static_cast<unsigned char*>(base)[8] ^= 0xff;
          scribbled = env.now();
          env.compute(sim::us(20));  // no Env call until user 0 is done
        }
        env.barrier(w);
        env.win_free(win);
      },
      m.layer);
  rt.add_observer(&oracle);
  rt.add_observer(&ref);
  rt.run();
  EXPECT_LT(flush_begin, scribbled);
  EXPECT_LT(scribbled, flush_end);
  ASSERT_EQ(oracle.divergences().size(), 1u);
  expect_same_verdicts(oracle, ref);
}

// The planted segment-binding flip at its proof seed: the skipping oracle
// catches it with exactly the reference's divergences.
TEST(ShadowOracle, PlantedBindingBugVerdictsMatchFullScans) {
  check::FuzzCase fc = check::make_case(1, true);
  ASSERT_EQ(fc.binding, core::Binding::Segment);
  fc.bug = check::Bug::FlipSegmentBinding;
  core::Config cc = check::casper_config(fc);
  cc.adaptive.enabled = fc.adaptive;
  cc.fault.flip_segment_binding = true;
  check::RunOutcome out;
  out.content_hash.assign(static_cast<std::size_t>(fc.nusers()), 0);
  out.world_of.assign(static_cast<std::size_t>(fc.nusers()), -1);
  check::ShadowOracle oracle;
  ScanEverySync ref;
  mpi::Runtime rt(
      check::run_config(fc, check::perturb_for(1, 0)),
      [&](mpi::Env& env) { check::fuzz_body(env, fc, out); },
      check::layer_for(fc, cc));
  rt.add_observer(&oracle);
  rt.add_observer(&ref);
  rt.run();
  EXPECT_FALSE(oracle.clean());
  expect_same_verdicts(oracle, ref);
}

// Generated cases are deterministic in the seed and structurally sane.
TEST(Fuzzer, CaseGenerationIsDeterministicAndSane) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const check::FuzzCase a = check::make_case(seed, true);
    const check::FuzzCase b = check::make_case(seed, true);
    ASSERT_EQ(a.ops.size(), b.ops.size());
    ASSERT_GE(a.nusers(), 2);
    ASSERT_FALSE(a.ops.empty());
    for (std::size_t i = 0; i < a.ops.size(); ++i) {
      EXPECT_EQ(a.ops[i].kind, b.ops[i].kind);
      EXPECT_EQ(a.ops[i].disp, b.ops[i].disp);
      EXPECT_EQ(a.ops[i].val, b.ops[i].val);
      ASSERT_LT(a.ops[i].origin, a.nusers());
      ASSERT_LT(a.ops[i].target, a.nusers());
      // Every op fits inside the target segment.
      ASSERT_LE(a.ops[i].disp +
                    mpi::span_bytes(a.ops[i].count, a.ops[i].tdt),
                a.seg_bytes());
    }
  }
}

// A handful of corpus seeds run clean under the classic schedule.
TEST(Fuzzer, CorpusSeedsRunClean) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const check::FuzzCase fc = check::make_case(seed, true);
    const check::RunOutcome out = check::run_case(fc, 0);
    EXPECT_TRUE(out.oracle_clean())
        << "seed " << seed << ": " << out.divergences.size()
        << " divergence(s), " << out.atomicity_violations << " violation(s)";
    EXPECT_GT(out.commits, 0u) << "seed " << seed;
  }
}

// Schedule perturbation must (a) be reproducible for equal seeds, (b)
// actually change the interleaving for some case, and (c) never change the
// final window contents of a schedule-invariant program.
TEST(Fuzzer, PerturbedSchedulesAreReproducibleAndEquivalent) {
  bool any_trace_changed = false;
  int invariant_checked = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const check::FuzzCase fc = check::make_case(seed, true);
    const check::RunOutcome base = check::run_case(fc, 0);
    for (int s = 1; s < 3; ++s) {
      const std::uint64_t p = check::perturb_for(seed, s);
      ASSERT_NE(p, 0u);
      const check::RunOutcome a = check::run_case(fc, p);
      const check::RunOutcome b = check::run_case(fc, p);
      EXPECT_TRUE(a.oracle_clean()) << "seed " << seed << " perturb " << p;
      // Bit-reproducible: same program + same perturb seed = same schedule.
      ASSERT_EQ(a.trace.size(), b.trace.size());
      for (std::size_t i = 0; i < a.trace.size(); ++i) {
        ASSERT_EQ(a.trace[i].t, b.trace[i].t);
        ASSERT_EQ(a.trace[i].rank, b.trace[i].rank);
      }
      if (a.trace.size() != base.trace.size()) {
        any_trace_changed = true;
      } else {
        for (std::size_t i = 0; i < a.trace.size(); ++i) {
          if (a.trace[i].rank != base.trace[i].rank) {
            any_trace_changed = true;
            break;
          }
        }
      }
      if (!fc.order_sensitive) {
        ++invariant_checked;
        EXPECT_EQ(a.content_hash, base.content_hash)
            << "seed " << seed << " perturb " << p;
      }
    }
  }
  EXPECT_TRUE(any_trace_changed)
      << "perturbation never altered any schedule";
  EXPECT_GT(invariant_checked, 0);
}

// The deliberately flipped segment->ghost binding (core::Config::Fault) must
// be caught by the oracle on some corpus case — this is the harness's proof
// of life.
TEST(Fuzzer, InjectedBindingBugIsCaught) {
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    check::FuzzCase fc = check::make_case(seed, true);
    if (fc.binding != core::Binding::Segment || fc.ghosts < 2) continue;
    fc.bug = check::Bug::FlipSegmentBinding;
    for (int s = 0; s < 4; ++s) {
      const check::RunOutcome out =
          check::run_case(fc, check::perturb_for(seed, s));
      if (!out.oracle_clean()) {
        SUCCEED();
        return;
      }
    }
  }
  FAIL() << "flipped segment binding was never detected";
}

TEST(Fuzzer, MinimizePrefixFindsSmallestFailing) {
  int calls = 0;
  const int k = check::minimize_prefix(40, [&](int n) {
    ++calls;
    return n >= 17;
  });
  EXPECT_EQ(k, 17);
  EXPECT_LE(calls, 10);
  EXPECT_EQ(check::minimize_prefix(5, [](int n) { return n >= 1; }), 1);
  // Nothing fails: falls back to total.
  EXPECT_EQ(check::minimize_prefix(5, [](int) { return false; }), 5);
}

// write_repro -> parse_repro -> replay round-trips the failure.
TEST(Fuzzer, ReproFileRoundTrips) {
  // Find one fault-injected failing case (same hunt as the fault proof).
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    check::FuzzCase fc = check::make_case(seed, true);
    if (fc.binding != core::Binding::Segment || fc.ghosts < 2) continue;
    fc.bug = check::Bug::FlipSegmentBinding;
    for (int s = 0; s < 4; ++s) {
      const std::uint64_t p = check::perturb_for(seed, s);
      const check::RunOutcome out = check::run_case(fc, p);
      if (out.oracle_clean()) continue;

      check::Repro rp;
      rp.spec.bug = check::Bug::FlipSegmentBinding;
      rp.kind = "oracle-divergence";
      rp.seed = seed;
      rp.perturb = p;
      rp.prefix = static_cast<int>(fc.ops.size());
      const std::string path = check::write_repro(rp, testing::TempDir());
      ASSERT_FALSE(path.empty());
      check::Repro back;
      ASSERT_TRUE(check::parse_repro(path, back));
      EXPECT_EQ(back.spec.workload, check::Workload::Rma);
      EXPECT_EQ(back.seed, rp.seed);
      EXPECT_EQ(back.perturb, rp.perturb);
      EXPECT_EQ(back.prefix, rp.prefix);
      EXPECT_EQ(back.spec.reduced, rp.spec.reduced);
      EXPECT_EQ(back.spec.bug, rp.spec.bug);
      EXPECT_EQ(back.kind, rp.kind);
      EXPECT_TRUE(check::replay(back));
      std::remove(path.c_str());
      return;
    }
  }
  FAIL() << "no fault-injected failure found to round-trip";
}

namespace {

/// The first seed whose case runs under Casper ghosts, for each workload.
check::Deployment casper_case(check::Workload w) {
  for (std::uint64_t seed = 1;; ++seed) {
    check::Deployment d;
    switch (w) {
      case check::Workload::Rma: d = check::make_case(seed, true); break;
      case check::Workload::Kv: d = check::make_kv_case(seed, true); break;
      case check::Workload::Mwcas: d = check::make_mw_case(seed, true); break;
    }
    if (d.mode == check::ProgressMode::Casper) return d;
  }
}

}  // namespace

// The one FaultPlan block carries net faults, kills AND stalls through the
// repro file of every workload.
TEST(Fuzzer, ReproCarriesWholeFaultPlanForEveryWorkload) {
  for (const check::Workload w :
       {check::Workload::Rma, check::Workload::Kv, check::Workload::Mwcas}) {
    const check::Deployment d = casper_case(w);
    const std::vector<int> ghosts = check::ghost_ranks(d);
    ASSERT_FALSE(ghosts.empty()) << check::to_string(w);
    check::Repro rp;
    rp.spec.workload = w;
    rp.kind = "schedule-divergence";
    rp.seed = d.seed;
    rp.perturb = check::perturb_for(d.seed, 1);
    rp.prefix = 3;
    fault::FaultPlan& plan = rp.plan;
    plan.seed = 0x1234567890abcdefULL;
    plan.net.drop_p = 0.1;
    plan.net.dup_p = 1.0 / 3.0;
    plan.net.delay_p = 0.25;
    plan.net.delay_min = sim::us(2);
    plan.net.delay_max = sim::us(17);
    plan.net.ack_drop_p = 0.05;
    plan.rto_base = sim::us(9);
    plan.max_retries = 7;
    plan.heartbeat_period = sim::us(3);
    plan.kills.push_back({ghosts.back(), sim::us(20)});
    plan.stalls.push_back({ghosts.front(), sim::us(5), sim::us(4)});
    const std::string path = check::write_repro(rp, testing::TempDir());
    ASSERT_FALSE(path.empty()) << check::to_string(w);
    check::Repro back;
    ASSERT_TRUE(check::parse_repro(path, back)) << check::to_string(w);
    EXPECT_EQ(back.spec.workload, w);
    EXPECT_EQ(back.kind, rp.kind);
    EXPECT_EQ(back.seed, rp.seed);
    EXPECT_EQ(back.perturb, rp.perturb);
    EXPECT_EQ(back.prefix, rp.prefix);
    const fault::FaultPlan& got = back.plan;
    EXPECT_EQ(got.seed, plan.seed) << check::to_string(w);
    EXPECT_EQ(got.net.drop_p, plan.net.drop_p);
    EXPECT_EQ(got.net.dup_p, plan.net.dup_p);
    EXPECT_EQ(got.net.delay_p, plan.net.delay_p);
    EXPECT_EQ(got.net.delay_min, plan.net.delay_min);
    EXPECT_EQ(got.net.delay_max, plan.net.delay_max);
    EXPECT_EQ(got.net.ack_drop_p, plan.net.ack_drop_p);
    EXPECT_EQ(got.rto_base, plan.rto_base);
    EXPECT_EQ(got.max_retries, plan.max_retries);
    EXPECT_EQ(got.heartbeat_period, plan.heartbeat_period);
    ASSERT_EQ(got.kills.size(), 1u) << check::to_string(w);
    EXPECT_EQ(got.kills[0].world_rank, plan.kills[0].world_rank);
    EXPECT_EQ(got.kills[0].at, plan.kills[0].at);
    ASSERT_EQ(got.stalls.size(), 1u) << check::to_string(w);
    EXPECT_EQ(got.stalls[0].world_rank, plan.stalls[0].world_rank);
    EXPECT_EQ(got.stalls[0].at, plan.stalls[0].at);
    EXPECT_EQ(got.stalls[0].duration, plan.stalls[0].duration);
    std::remove(path.c_str());
  }
}

// The one proof pipeline catches every planted bug at its known seed and
// minimized length, and each written repro replays through the dispatcher
// `fuzz_conformance --replay` uses.
TEST(Fuzzer, ProofCatchesEveryPlantedBugAndReplays) {
  const struct {
    check::Bug bug;
    std::uint64_t seed;
    int ops;
  } expect[] = {{check::Bug::FlipSegmentBinding, 1, 15},
                {check::Bug::KvSkipUnlockFlush, 38, 40},
                {check::Bug::MwSkipHelp, 1, 4},
                {check::Bug::MwTornInstall, 3, 3},
                {check::Bug::MwStaleStatus, 6, 7}};
  check::CampaignOptions opt;
  opt.schedules = 2;
  opt.repro_dir = testing::TempDir();
  const check::Campaign campaign(opt);
  for (const auto& e : expect) {
    const check::ProofResult pr = campaign.prove(e.bug);
    ASSERT_TRUE(pr.ok) << check::to_string(e.bug) << ": " << pr.error;
    EXPECT_EQ(pr.failure.seed, e.seed) << check::to_string(e.bug);
    EXPECT_EQ(pr.failure.schedule, 0) << check::to_string(e.bug);
    EXPECT_EQ(pr.failure.minimized_ops, e.ops) << check::to_string(e.bug);
    check::Repro back;
    ASSERT_TRUE(check::parse_repro(pr.failure.repro_path, back));
    EXPECT_EQ(back.spec.bug, e.bug);
    EXPECT_TRUE(check::replay(back)) << pr.failure.repro_path;
    std::remove(pr.failure.repro_path.c_str());
  }
}
