#include "check/mwfuzz.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "check/oracle.hpp"
#include "check/race.hpp"
#include "mpi/runtime.hpp"
#include "net/profile.hpp"
#include "obs/record.hpp"
#include "progress/progress.hpp"
#include "sim/rng.hpp"

namespace casper::check {

namespace {

constexpr const char* kMwReproHeader = "# casper mwcas repro v1";

const char* binding_name(core::Binding b) {
  return b == core::Binding::Segment ? "segment" : "rank";
}

void apply_bug(mwcas::MwConfig& mc, MwBug bug) {
  mc.bug_skip_help = bug == MwBug::SkipHelp;
  mc.bug_torn_install = bug == MwBug::TornInstall;
  mc.bug_stale_status = bug == MwBug::StaleStatus;
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

const char* to_string(MwBug b) {
  switch (b) {
    case MwBug::None: return "none";
    case MwBug::SkipHelp: return "skip-help";
    case MwBug::TornInstall: return "torn-install";
    case MwBug::StaleStatus: return "stale-status";
  }
  return "?";
}

MwCase make_mw_case(std::uint64_t seed, bool reduced, int ops_per_client) {
  sim::Rng rng(seed, 0x6d77);
  MwCase fc;
  fc.seed = seed;
  fc.nodes = 1 + static_cast<int>(rng.next_below(2));
  fc.users_per_node = 1 + static_cast<int>(rng.next_below(3));
  if (fc.nodes * fc.users_per_node < 2) fc.users_per_node = 2;
  fc.ghosts = 1 + static_cast<int>(rng.next_below(2));
  switch (rng.next_below(4)) {
    case 0: fc.mode = KvMode::Original; break;
    case 1: fc.mode = KvMode::Thread; break;
    default: fc.mode = KvMode::Casper; break;
  }
  fc.binding =
      rng.next_below(2) ? core::Binding::Segment : core::Binding::Rank;
  switch (rng.next_below(4)) {
    case 0: fc.dynamic = core::DynamicLb::None; break;
    case 1: fc.dynamic = core::DynamicLb::Random; break;
    case 2: fc.dynamic = core::DynamicLb::OpCounting; break;
    default: fc.dynamic = core::DynamicLb::ByteCounting; break;
  }
  // A deliberately tiny heap: descriptors collide, helpers run, and the
  // hot-head draw below concentrates most ops on the first few words.
  fc.words_per_rank = 1 + static_cast<int>(rng.next_below(2));
  const int total = fc.total_words();
  const int hot = total < 4 ? total : 4;
  // Always draw, then override (repro files record the override).
  const int drawn = reduced ? 4 + static_cast<int>(rng.next_below(8))
                            : 12 + static_cast<int>(rng.next_below(20));
  const int opsper = ops_per_client > 0 ? ops_per_client : drawn;
  const int max_width = total < 4 ? total : 4;

  // Per-client RNG streams keep each client's program (and think times)
  // independent of every other client's draws — and tie-free.
  std::vector<sim::Rng> crng;
  for (int c = 0; c < fc.nclients(); ++c) {
    crng.emplace_back(seed, 0x300 + static_cast<std::uint64_t>(c));
  }
  // Client-minor interleave, like kv::make_ops: a global prefix truncation
  // cuts every client's program evenly.
  for (int k = 0; k < opsper; ++k) {
    for (int c = 0; c < fc.nclients(); ++c) {
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
  sim::Rng rng(fc.seed, 0xfa6d7);
  fault::FaultPlan& fp = fc.fault_plan;
  fp.seed = fc.seed ^ 0x6d77a5a5a5a5a5a5ULL;
  fault::NetFaults& n = fp.net;
  const std::uint64_t mix = rng.next_below(8);
  if (mix == 0 || (mix & 1) != 0) n.drop_p = 0.02 + 0.13 * rng.next_double();
  if (mix == 1 || (mix & 2) != 0) n.dup_p = 0.02 + 0.13 * rng.next_double();
  if (mix == 2 || (mix & 4) != 0) {
    n.delay_p = 0.05 + 0.25 * rng.next_double();
    n.delay_min = sim::us(1);
    n.delay_max = sim::us(5 + rng.next_below(40));
  }
  if (rng.next_below(3) == 0) n.ack_drop_p = 0.02 + 0.10 * rng.next_double();
}

std::vector<int> mw_ghost_ranks(const MwCase& fc) {
  if (fc.mode != KvMode::Casper) return {};
  net::Topology topo;
  topo.nodes = fc.nodes;
  topo.cores_per_node = fc.users_per_node + fc.ghosts;
  core::Config cc;
  cc.ghosts_per_node = fc.ghosts;
  std::vector<int> out;
  for (int w = 0; w < topo.nranks(); ++w) {
    if (core::is_ghost_rank(topo, cc, w)) out.push_back(w);
  }
  return out;
}

MwOutcome run_mw_case(const MwCase& fc, std::uint64_t perturb_seed,
                      int shards, std::size_t op_limit) {
  const bool sharded = shards > 1;
  mpi::RunConfig rc;
  rc.machine.profile = net::cray_xc30_regular();
  rc.machine.topo.nodes = fc.nodes;
  rc.machine.topo.cores_per_node =
      fc.mode == KvMode::Casper ? fc.users_per_node + fc.ghosts
                                : fc.users_per_node;
  rc.seed = fc.seed;
  rc.perturb_seed = perturb_seed;
  rc.shards = shards;
  if (!sharded && fc.fault_plan.active()) rc.fault = &fc.fault_plan;
  if (fc.mode == KvMode::Thread) {
    rc.progress.kind = progress::Kind::Thread;
    rc.progress.oversubscribed = true;
  }

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

  core::Config cc;
  cc.ghosts_per_node = fc.ghosts;
  cc.binding = fc.binding;
  cc.dynamic = fc.dynamic;
  mpi::Runtime rt(rc, body,
                  fc.mode == KvMode::Casper ? core::layer(cc)
                                            : mpi::LayerFactory{});
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
  if (fc.fault_plan.active()) {
    for (const auto& [key, val] : rt.stats().all()) {
      if (key.rfind("fault.", 0) == 0 || key.rfind("recovery.", 0) == 0) {
        out.fault_stats[key] = val;
      }
    }
  }
  return out;
}

std::string write_mw_repro(const MwRepro& r, const MwCase& fc,
                           const MwOutcome& out, const std::string& dir) {
  char name[128];
  std::snprintf(name, sizeof(name),
                "casper_mwcas_repro_s%" PRIu64 "_p%" PRIu64 ".txt", r.seed,
                r.perturb);
  const std::string path = dir.empty() ? name : dir + "/" + name;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return {};
  std::fprintf(f, "%s\n", kMwReproHeader);
  std::fprintf(f, "# replay: fuzz_conformance --replay %s\n", path.c_str());
  std::fprintf(f, "kind %s\n", r.kind.c_str());
  std::fprintf(f, "seed %" PRIu64 "\n", r.seed);
  std::fprintf(f, "perturb %" PRIu64 "\n", r.perturb);
  std::fprintf(f, "prefix %d\n", r.prefix_ops);
  std::fprintf(f, "opsper %d\n", r.ops_per_client);
  std::fprintf(f, "reduced %d\n", r.reduced ? 1 : 0);
  std::fprintf(f, "bug %d\n", static_cast<int>(r.bug));
  if (r.plan.active()) {
    std::fprintf(f,
                 "netfault seed=%" PRIu64 " drop=%.17g dup=%.17g delay=%.17g "
                 "dmin=%" PRIu64 " dmax=%" PRIu64 " ackdrop=%.17g "
                 "rto=%" PRIu64 " maxretries=%d hb=%" PRIu64 "\n",
                 r.plan.seed, r.plan.net.drop_p, r.plan.net.dup_p,
                 r.plan.net.delay_p, r.plan.net.delay_min,
                 r.plan.net.delay_max, r.plan.net.ack_drop_p, r.plan.rto_base,
                 r.plan.max_retries, r.plan.heartbeat_period);
    for (const auto& k : r.plan.kills) {
      std::fprintf(f, "kill rank=%d at=%" PRIu64 "\n", k.world_rank, k.at);
    }
  }
  std::fprintf(f,
               "case mode=%s nodes=%d users_per_node=%d ghosts=%d "
               "binding=%s dynamic=%d words_per_rank=%d bug=%s\n",
               to_string(fc.mode), fc.nodes, fc.users_per_node, fc.ghosts,
               binding_name(fc.binding), static_cast<int>(fc.dynamic),
               fc.words_per_rank, to_string(fc.bug));
  const std::size_t nshow =
      r.prefix_ops > 0
          ? std::min<std::size_t>(static_cast<std::size_t>(r.prefix_ops),
                                  fc.ops.size())
          : fc.ops.size();
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
  std::fclose(f);
  return path;
}

bool is_mw_repro(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return false;
  char line[128] = {};
  const bool ok = std::fgets(line, sizeof line, f) != nullptr &&
                  std::strncmp(line, kMwReproHeader,
                               std::strlen(kMwReproHeader)) == 0;
  std::fclose(f);
  return ok;
}

bool parse_mw_repro(const std::string& path, MwRepro& out) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return false;
  char line[512];
  bool have_seed = false, have_kind = false;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    char kind[64];
    int b = 0;
    if (std::sscanf(line, "kind %63s", kind) == 1) {
      out.kind = kind;
      have_kind = true;
    } else if (std::sscanf(line, "seed %" SCNu64, &out.seed) == 1) {
      have_seed = true;
    } else if (std::sscanf(line, "perturb %" SCNu64, &out.perturb) == 1) {
    } else if (std::sscanf(line, "prefix %d", &out.prefix_ops) == 1) {
    } else if (std::sscanf(line, "opsper %d", &out.ops_per_client) == 1) {
    } else if (std::sscanf(line, "reduced %d", &b) == 1) {
      out.reduced = b != 0;
    } else if (std::sscanf(line, "bug %d", &b) == 1) {
      out.bug = static_cast<MwBug>(b);
    } else if (std::sscanf(line,
                           "netfault seed=%" SCNu64 " drop=%lg dup=%lg "
                           "delay=%lg dmin=%" SCNu64 " dmax=%" SCNu64
                           " ackdrop=%lg rto=%" SCNu64 " maxretries=%d "
                           "hb=%" SCNu64,
                           &out.plan.seed, &out.plan.net.drop_p,
                           &out.plan.net.dup_p, &out.plan.net.delay_p,
                           &out.plan.net.delay_min, &out.plan.net.delay_max,
                           &out.plan.net.ack_drop_p, &out.plan.rto_base,
                           &out.plan.max_retries,
                           &out.plan.heartbeat_period) == 10) {
    } else {
      fault::GhostKill k;
      if (std::sscanf(line, "kill rank=%d at=%" SCNu64, &k.world_rank,
                      &k.at) == 2) {
        out.plan.kills.push_back(k);
      }
    }
  }
  std::fclose(f);
  return have_seed && have_kind;
}

bool replay_mw(const MwRepro& r) {
  MwCase fc = make_mw_case(r.seed, r.reduced, r.ops_per_client);
  fc.bug = r.bug;
  if (r.plan.active()) fc.fault_plan = r.plan;
  const std::size_t limit =
      r.prefix_ops > 0 ? static_cast<std::size_t>(r.prefix_ops)
                       : ~std::size_t{0};
  if (r.kind == "mwcas-mismatch") {
    const MwOutcome ref = run_mw_case(fc, perturb_for(r.seed, 0), 1, limit);
    const MwOutcome out = run_mw_case(fc, r.perturb, 1, limit);
    return mw_outcomes_differ(fc, ref, out);
  }
  const MwOutcome out = run_mw_case(fc, r.perturb, 1, limit);
  if (r.kind == "mwcas-violation") return out.violations > 0;
  if (r.kind == "mwcas-oracle-divergence") {
    return out.divergences > 0 || out.atomicity > 0 ||
           out.race_conflicts > 0;
  }
  return !out.clean();
}

namespace {

Failure mw_failure(const MwCase& fc, std::uint64_t perturb,
                   const std::string& kind, const MwCampaignOptions& opt,
                   const std::function<bool(std::size_t)>& fails_at) {
  const int k = minimize_prefix(
      static_cast<int>(fc.ops.size()),
      [&](int n) { return fails_at(static_cast<std::size_t>(n)); });
  const MwOutcome rerun =
      run_mw_case(fc, perturb, 1, static_cast<std::size_t>(k));
  MwRepro rp;
  rp.seed = fc.seed;
  rp.perturb = perturb;
  rp.prefix_ops = k;
  rp.ops_per_client = 0;
  rp.reduced = opt.reduced;
  rp.bug = fc.bug;
  rp.plan = fc.fault_plan;
  rp.kind = kind;
  Failure fl;
  fl.seed = fc.seed;
  fl.perturb = perturb;
  fl.kind = kind;
  fl.minimized_ops = k;
  fl.repro_path = write_mw_repro(rp, fc, rerun, opt.repro_dir);
  return fl;
}

}  // namespace

MwCampaignResult run_mw_campaign(const MwCampaignOptions& opt) {
  MwCampaignResult res;
  for (int c = 0; c < opt.cases; ++c) {
    const std::uint64_t seed = opt.base_seed + static_cast<std::uint64_t>(c);
    MwCase fc = make_mw_case(seed, opt.reduced);
    if (opt.net_faults) add_mw_net_faults(fc);
    ++res.cases_run;
    MwOutcome ref;
    bool have_ref = false;
    bool failed = false;
    for (int s = 0; s < opt.schedules && !failed; ++s) {
      const std::uint64_t p = perturb_for(seed, s);
      const MwOutcome out = run_mw_case(fc, p);
      ++res.runs;
      res.total_ops += out.checker_ops;
      if (out.violations > 0) {
        res.failures.push_back(mw_failure(
            fc, p, "mwcas-violation", opt, [&](std::size_t n) {
              return run_mw_case(fc, p, 1, n).violations > 0;
            }));
        failed = true;
        break;
      }
      if (out.divergences > 0 || out.atomicity > 0 ||
          out.race_conflicts > 0) {
        res.failures.push_back(mw_failure(
            fc, p, "mwcas-oracle-divergence", opt, [&](std::size_t n) {
              const MwOutcome o = run_mw_case(fc, p, 1, n);
              return o.divergences > 0 || o.atomicity > 0 ||
                     o.race_conflicts > 0;
            }));
        failed = true;
        break;
      }
      if (!have_ref) {
        ref = out;
        have_ref = true;
        continue;
      }
      // Cross-schedule invariance of the program-fixed counts (see
      // mw_outcomes_differ for the fields tie order may legally move).
      if (mw_outcomes_differ(fc, ref, out)) {
        res.failures.push_back(mw_failure(
            fc, p, "mwcas-mismatch", opt, [&](std::size_t n) {
              const MwOutcome a = run_mw_case(fc, perturb_for(seed, 0), 1, n);
              const MwOutcome b = run_mw_case(fc, p, 1, n);
              return mw_outcomes_differ(fc, a, b);
            }));
        failed = true;
        break;
      }
    }
    if (opt.verbose && (c + 1) % 50 == 0) {
      std::fprintf(stderr,
                   "mwfuzz: %d/%d cases, %d runs, %" PRIu64
                   " ops, %zu failure(s)\n",
                   c + 1, opt.cases, res.runs, res.total_ops,
                   res.failures.size());
    }
  }
  return res;
}

bool mwcas_proof(std::uint64_t base_seed, int schedules,
                 const std::string& out_dir, bool verbose) {
  const MwBug bugs[3] = {MwBug::SkipHelp, MwBug::TornInstall,
                         MwBug::StaleStatus};
  for (const MwBug bug : bugs) {
    bool proven = false;
    for (std::uint64_t seed = base_seed; seed < base_seed + 200; ++seed) {
      MwCase fc = make_mw_case(seed, /*reduced=*/true);
      // Every bug needs real contention: several clients hammering a word
      // pool small enough that descriptors collide mid-protocol.
      if (fc.nclients() < 2 || fc.total_words() > 6) continue;
      fc.bug = bug;
      std::uint64_t bad_perturb = 0;
      bool caught = false;
      for (int s = 0; s < schedules; ++s) {
        const std::uint64_t p = perturb_for(seed, s);
        const MwOutcome out = run_mw_case(fc, p);
        if (out.violations > 0) {
          bad_perturb = p;
          caught = true;
          break;
        }
      }
      if (!caught) continue;
      if (verbose) {
        std::fprintf(stderr,
                     "mwcas_proof: %s caught at seed %" PRIu64 "\n",
                     to_string(bug), seed);
      }
      const int k = minimize_prefix(
          static_cast<int>(fc.ops.size()), [&](int n) {
            return run_mw_case(fc, bad_perturb, 1,
                               static_cast<std::size_t>(n))
                       .violations > 0;
          });
      const MwOutcome rerun =
          run_mw_case(fc, bad_perturb, 1, static_cast<std::size_t>(k));
      if (rerun.violations == 0) return false;
      MwRepro rp;
      rp.seed = seed;
      rp.perturb = bad_perturb;
      rp.prefix_ops = k;
      rp.ops_per_client = 0;
      rp.reduced = true;
      rp.bug = bug;
      rp.plan = fc.fault_plan;
      rp.kind = "mwcas-violation";
      const std::string path = write_mw_repro(rp, fc, rerun, out_dir);
      if (path.empty()) return false;
      MwRepro parsed;
      if (!parse_mw_repro(path, parsed)) return false;
      if (!replay_mw(parsed)) return false;
      if (verbose) {
        std::fprintf(stderr,
                     "mwcas_proof: %s minimized to %d ops, repro %s\n",
                     to_string(bug), k, path.c_str());
      }
      proven = true;
      break;
    }
    if (!proven) return false;
  }
  return true;
}

}  // namespace casper::check
