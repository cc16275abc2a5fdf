#include "check/mwfuzz.hpp"

#include <cinttypes>

#include "check/oracle.hpp"
#include "check/race.hpp"
#include "obs/record.hpp"
#include "sim/rng.hpp"

namespace casper::check {

namespace {

void apply_bug(mwcas::MwConfig& mc, Bug bug) {
  mc.bug_skip_help = bug == Bug::MwSkipHelp;
  mc.bug_torn_install = bug == Bug::MwTornInstall;
  mc.bug_stale_status = bug == Bug::MwStaleStatus;
}

}  // namespace

bool mw_outcomes_differ(const MwCase& fc, const MwOutcome& a,
                        const MwOutcome& b) {
  // An active fault plan is exempt from every comparison: injected delays,
  // the reliable layer's retransmission timers and ghost kills act in
  // arrival order, so even which ops a kill interrupts can move.
  if (fc.fault_plan.active()) return false;
  // Gated in every mode: counts the client programs fix on their own. Every
  // schedule runs each client's whole program, and without a fault plan no
  // op is interrupted or recovered. Over perturbed schedules 1-31 of the
  // reduced corpus seeds 1-200, none of these ever moved, in any mode.
  //
  // Exempt, each with the mechanism that moves it:
  //  * end_time, history_hash: two clients' requests can reach one serial
  //    server -- the target process in original mode, the ghost of a
  //    single-ghost Casper node -- at the same virtual instant, and the tie
  //    order moves completion times (seed 46, single-ghost static Casper).
  //  * semantic_hash, fingerprint, and the counters that record race
  //    outcomes (success, fail, installs, helps, help_completes, rollbacks,
  //    retries, stale_abandons): when the tied requests are contending CAS
  //    steps on one word, the tie order decides which lands first, and with
  //    it the winner, the final heap words and the helping work (seed 168
  //    in original mode; seeds 145 and 195, single-ghost static Casper).
  // Thread-mode poll quantization, dynamic-LB routing that consumes load
  // state or an RNG stream in arrival order, and multi-ghost service loops
  // retiring AMs at one instant make the same ties more frequent. Every tie
  // resolution is a legal linearizable execution, and each run is still
  // gated on its own by the checker, oracle, race analyzer and atomicity
  // detector.
  return a.checker_ops != b.checker_ops || a.stats.ops != b.stats.ops ||
         a.stats.reads != b.stats.reads ||
         a.stats.interrupted != b.stats.interrupted ||
         a.stats.recoveries != b.stats.recoveries;
}

MwCase make_mw_case(std::uint64_t seed, bool reduced) {
  sim::Rng rng(seed, 0x6d77);
  MwCase fc;
  fc.seed = seed;
  draw_deployment(rng, fc, /*draw_mode=*/true);
  // A deliberately tiny heap: descriptors collide, helpers run, and the
  // hot-head draw below concentrates most ops on the first few words.
  fc.words_per_rank = 1 + static_cast<int>(rng.next_below(2));
  const int total = fc.total_words();
  const int hot = total < 4 ? total : 4;
  const int opsper = reduced ? 4 + static_cast<int>(rng.next_below(8))
                             : 12 + static_cast<int>(rng.next_below(20));
  const int max_width = total < 4 ? total : 4;

  // Per-client RNG streams keep each client's program (and think times)
  // independent of every other client's draws — and tie-free.
  std::vector<sim::Rng> crng;
  for (int c = 0; c < fc.nusers(); ++c) {
    crng.emplace_back(seed, 0x300 + static_cast<std::uint64_t>(c));
  }
  // Client-minor interleave, like kv::make_ops: a global prefix truncation
  // cuts every client's program evenly.
  for (int k = 0; k < opsper; ++k) {
    for (int c = 0; c < fc.nusers(); ++c) {
      sim::Rng& r = crng[static_cast<std::size_t>(c)];
      MwProgOp op;
      op.client = c;
      op.think = sim::us(1) + r.next_below(sim::us(3));
      const std::uint64_t kindroll = r.next_below(10);
      if (kindroll < 3) {
        op.width = 0;  // read
        op.word[0] = static_cast<int>(
            r.next_below(2) ? r.next_below(static_cast<std::uint64_t>(hot))
                            : r.next_below(static_cast<std::uint64_t>(total)));
      } else {
        op.width = 1 + static_cast<int>(
                           r.next_below(static_cast<std::uint64_t>(max_width)));
        op.stale = r.next_below(4) == 0;
        for (int i = 0; i < op.width; ++i) {
          for (;;) {
            const int w = static_cast<int>(
                r.next_below(2)
                    ? r.next_below(static_cast<std::uint64_t>(hot))
                    : r.next_below(static_cast<std::uint64_t>(total)));
            bool dup = false;
            for (int j = 0; j < i; ++j) dup = dup || op.word[j] == w;
            if (!dup) {
              op.word[i] = w;
              break;
            }
          }
        }
      }
      fc.ops.push_back(op);
    }
  }
  return fc;
}

void add_mw_net_faults(MwCase& fc) {
  add_lossy_network(fc, 0xfa6d7, 0x6d77a5a5a5a5a5a5ULL);
}

MwOutcome run_mw_case(const MwCase& fc, std::uint64_t perturb_seed,
                      int shards, std::size_t op_limit) {
  const bool sharded = shards > 1;
  mpi::RunConfig rc = run_config(fc, perturb_seed, shards);

  obs::Recorder rec;
  if (obs::kTraceCompiled) {
    rc.recorder = &rec;
    if (sharded) rec.set_shards(shards);
  }

  mwcas::MwConfig mc = fc.mw;
  apply_bug(mc, fc.bug);

  MwOutcome out;
  MwChecker checker;
  ShadowOracle oracle;
  RaceAnalyzer race;
  const int wpr = fc.words_per_rank;
  auto body = [&](mpi::Env& env) {
    mpi::Comm w = env.world();
    const int me = env.rank(w);
    mwcas::MwHeap heap(env, w, wpr, mc);
    heap.open();
    mwcas::Mwcas& mw = heap.mw();
    const auto rank_of = [wpr](int gw) { return gw / wpr; };
    const auto off_of = [wpr](int gw) {
      return static_cast<std::size_t>(gw % wpr) * 8;
    };
    // Staggered starts keep the workload tie-free under every schedule.
    env.compute(sim::ns(211) * static_cast<sim::Time>(me + 1));
    std::uint64_t cseq = 0;
    const auto read_logged = [&](int gw) {
      MwEvent g;
      g.kind = MwEvent::Kind::Read;
      g.client = me;
      g.cseq = cseq++;
      g.width = 1;
      g.word[0] = static_cast<std::uint64_t>(gw);
      g.inv = env.now();
      g.value = mw.read(rank_of(gw), off_of(gw));
      g.resp = env.now();
      checker.record(g);
      return g.value;
    };
    std::size_t gidx = 0;
    for (const MwProgOp& op : fc.ops) {
      if (gidx++ >= op_limit) break;
      if (op.client != me) continue;
      env.compute(op.think);
      if (op.width == 0) {
        read_logged(op.word[0]);
        continue;
      }
      // Gather expected values through logged reads: if a torn install or a
      // leaked descriptor is sitting in a word, the gather itself records
      // the impossible value.
      std::int64_t exp[8];
      for (int i = 0; i < op.width; ++i) exp[i] = read_logged(op.word[i]);
      if (op.stale) env.compute(op.think + sim::us(1));
      MwEvent e;
      e.kind = MwEvent::Kind::Mwcas;
      e.client = me;
      e.cseq = cseq++;
      e.width = op.width;
      mwcas::MwTarget ts[8];
      for (int i = 0; i < op.width; ++i) {
        ts[i].rank = rank_of(op.word[i]);
        ts[i].off = off_of(op.word[i]);
        ts[i].expected = exp[i];
        // Globally unique desired values (cseq strictly increases per
        // client): lost/duplicated updates are attributable.
        ts[i].desired = static_cast<std::int64_t>(me + 1) * 1000000 +
                        static_cast<std::int64_t>(e.cseq) * 16 + i;
        e.word[i] = static_cast<std::uint64_t>(op.word[i]);
        e.expected[i] = ts[i].expected;
        e.desired[i] = ts[i].desired;
      }
      e.inv = env.now();
      // A leaked descriptor pointer (skip-help bug) read during the gather
      // is not a legal expected value; clamp so the mwcas target asserts
      // hold and the op simply fails — the gather's Get already recorded
      // the violation.
      bool sane = true;
      for (int i = 0; i < op.width; ++i) {
        sane = sane && !mwcas::Mwcas::is_ptr_value(ts[i].expected);
      }
      if (sane) {
        const mwcas::MwResult r = mw.mwcas(ts, op.width);
        e.ok = r.ok;
        e.mismatch_index = r.mismatch_index;
        e.observed = r.observed;
        if (r.mismatch_index >= 0) {
          // Map the library's canonical-order index back to ours.
          // run_own sorts by (rank, off); find the matching target.
          int mi = -1;
          for (int i = 0; i < op.width && mi < 0; ++i) {
            int less = 0;
            for (int j = 0; j < op.width; ++j) {
              if (ts[j].rank < ts[i].rank ||
                  (ts[j].rank == ts[i].rank && ts[j].off < ts[i].off)) {
                ++less;
              }
            }
            if (less == r.mismatch_index) mi = i;
          }
          e.mismatch_index = mi;
        }
      } else {
        e.ok = false;
        e.mismatch_index = -1;
      }
      e.resp = env.now();
      checker.record(e);
    }
    env.barrier(w);
    // Final sweep: rank 0 reads back every heap word, so any torn value
    // still sitting in the heap lands in the checked history.
    if (me == 0) {
      for (int gw = 0; gw < fc.total_words(); ++gw) read_logged(gw);
    }
    env.barrier(w);
    // Workload end time: every op and the sweep completed and flushed. The
    // teardown below (simultaneous unlock_all from all ranks) has benign
    // scheduling ties that must not enter the invariance gate.
    if (me == 0) out.end_time = env.now();
    const mwcas::MwStats local = mw.stats();
    heap.close();
    // Cluster-wide protocol counters: exact double sums.
    constexpr int kFields = sizeof(mwcas::MwStats) / sizeof(std::uint64_t);
    const std::uint64_t* f = &local.ops;
    double in[kFields], sum[kFields];
    for (int i = 0; i < kFields; ++i) in[i] = static_cast<double>(f[i]);
    env.allreduce(in, sum, kFields, mpi::Dt::Double, mpi::AccOp::Sum, w);
    if (me == 0) {
      std::uint64_t* g = &out.stats.ops;
      for (int i = 0; i < kFields; ++i) {
        g[i] = static_cast<std::uint64_t>(sum[i]);
      }
      out.fingerprint = heap.fingerprint();
    }
  };

  mpi::Runtime rt(rc, body, layer_for(fc, casper_config(fc)));
  if (!sharded) rt.add_observer(&oracle);
  rt.add_observer(&race);
  rt.add_observer(&checker);
  rt.run();

  if (obs::kTraceCompiled) {
    rec.merge_shards();
    checker.set_recorder(&rec);
    race.set_recorder(&rec);
  }
  out.violations = checker.check().size();
  for (const MwChecker::Violation& v : checker.check()) {
    out.diags.push_back(v.diag);
    if (out.diags.size() >= 4) break;
  }
  out.history_hash = checker.history_hash();
  out.semantic_hash = checker.semantic_hash();
  out.checker_ops = checker.ops_recorded();
  out.atomicity = rt.stats().get("atomicity_violations");
  out.race_conflicts = race.conflict_events();
  out.run_stats = rt.stats().all();
  if (!sharded) out.divergences = oracle.divergences().size();
  if (obs::kTraceCompiled) {
    for (const auto& [key, val] : rec.metrics().counters()) {
      if (key.rfind("mwcas.", 0) == 0 || key.rfind("linear.", 0) == 0) {
        out.metrics[key] = val;
      }
    }
  }
  out.fault_stats = fault_stats(fc, out.run_stats);
  return out;
}

MwCase MwWorkload::generate(std::uint64_t seed) const {
  MwCase fc = make_mw_case(seed, spec.reduced);
  if (spec.net_faults) add_mw_net_faults(fc);
  fc.bug = spec.bug;
  return fc;
}

MwOutcome MwWorkload::run(const MwCase& fc, std::uint64_t perturb,
                          int prefix) const {
  return run_mw_case(fc, perturb, 1, static_cast<std::size_t>(prefix));
}

std::string MwWorkload::judge(const MwCase& fc, const MwOutcome& ref,
                              const MwOutcome& out) const {
  if (out.violations > 0) return "mwcas-violation";
  if (out.divergences > 0 || out.atomicity > 0 || out.race_conflicts > 0)
    return "mwcas-oracle-divergence";
  if (mw_outcomes_differ(fc, ref, out)) return "mwcas-mismatch";
  return "";
}

bool MwWorkload::candidate(const MwCase& fc) const {
  return fc.bug == Bug::None ||
         (fc.nusers() >= 2 && fc.total_words() <= 6);
}

void MwWorkload::describe(std::FILE* f, const MwCase& fc,
                          const MwOutcome& out, int prefix) const {
  std::fprintf(f, "case %s words_per_rank=%d\n", to_string(fc).c_str(),
               fc.words_per_rank);
  const std::size_t nshow =
      std::min<std::size_t>(static_cast<std::size_t>(prefix), fc.ops.size());
  for (std::size_t i = 0; i < nshow && i < 256; ++i) {
    const MwProgOp& op = fc.ops[i];
    std::fprintf(f, "op %zu client=%d width=%d stale=%d think=%" PRIu64
                    " words=",
                 i, op.client, op.width, op.stale ? 1 : 0, op.think);
    const int nw = op.width == 0 ? 1 : op.width;
    for (int j = 0; j < nw; ++j) {
      std::fprintf(f, "%s%d", j == 0 ? "" : ",", op.word[j]);
    }
    std::fprintf(f, "\n");
  }
  for (const std::string& d : out.diags) {
    std::fprintf(f, "violation %s\n", d.c_str());
  }
  std::fprintf(f, "history_hash %" PRIu64 "\n", out.history_hash);
  std::fprintf(f, "checker_ops %zu\n", out.checker_ops);
}

}  // namespace casper::check
