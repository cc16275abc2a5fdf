#include "check/kvfuzz.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "check/oracle.hpp"
#include "mpi/runtime.hpp"
#include "net/profile.hpp"
#include "obs/record.hpp"
#include "progress/progress.hpp"
#include "sim/rng.hpp"

namespace casper::check {

namespace {

constexpr const char* kKvReproHeader = "# casper kv repro v1";

const char* binding_name(core::Binding b) {
  return b == core::Binding::Segment ? "segment" : "rank";
}

}  // namespace

const char* to_string(KvMode m) {
  switch (m) {
    case KvMode::Original: return "original";
    case KvMode::Thread: return "thread";
    case KvMode::Casper: return "casper";
  }
  return "?";
}

KvCase make_kv_case(std::uint64_t seed, bool reduced, int ops_per_client) {
  sim::Rng rng(seed, 0x6b76);
  KvCase fc;
  fc.seed = seed;
  fc.nodes = 1 + static_cast<int>(rng.next_below(2));
  fc.users_per_node = 1 + static_cast<int>(rng.next_below(3));
  if (fc.nodes * fc.users_per_node < 2) fc.users_per_node = 2;
  fc.ghosts = 1 + static_cast<int>(rng.next_below(2));
  switch (rng.next_below(4)) {
    case 0: fc.mode = KvMode::Original; break;
    case 1: fc.mode = KvMode::Thread; break;
    default: fc.mode = KvMode::Casper; break;  // Casper twice as often
  }
  fc.binding =
      rng.next_below(2) ? core::Binding::Segment : core::Binding::Rank;
  switch (rng.next_below(4)) {
    case 0: fc.dynamic = core::DynamicLb::None; break;
    case 1: fc.dynamic = core::DynamicLb::Random; break;
    case 2: fc.dynamic = core::DynamicLb::OpCounting; break;
    default: fc.dynamic = core::DynamicLb::ByteCounting; break;
  }
  // Tiny tables keep every bucket hot: collisions, overflow PUTs, and lock
  // contention all happen at ctest scale.
  fc.store.nbuckets = 2 + static_cast<int>(rng.next_below(6));
  fc.store.assoc = 1 + static_cast<int>(rng.next_below(3));
  fc.store.lock = rng.next_below(2) ? kv::KvConfig::LockKind::FaoTicket
                                    : kv::KvConfig::LockKind::CasSpin;
  fc.traffic.nkeys = 2 + static_cast<int>(rng.next_below(14));
  switch (rng.next_below(4)) {
    case 0: fc.traffic.zipf_s = 0.0; break;
    case 1: fc.traffic.zipf_s = 0.6; break;
    case 2: fc.traffic.zipf_s = 0.99; break;
    default: fc.traffic.zipf_s = 1.2; break;
  }
  fc.traffic.read_pct = 20 + static_cast<int>(rng.next_below(70));
  const int room = 100 - fc.traffic.read_pct;
  fc.traffic.rmw_pct = static_cast<int>(
      rng.next_below(static_cast<std::uint64_t>(room < 60 ? room : 60) + 1));
  // Always draw, then override: replays record the override and must not
  // shift the downstream draws relative to the original generation.
  const int drawn = reduced ? 6 + static_cast<int>(rng.next_below(10))
                            : 20 + static_cast<int>(rng.next_below(30));
  fc.traffic.ops_per_client = ops_per_client > 0 ? ops_per_client : drawn;
  fc.traffic.think_mean = sim::us(1 + rng.next_below(6));
  fc.traffic.seed = seed;
  fc.ops = kv::make_ops(fc.traffic, fc.nclients());
  return fc;
}

void add_kv_net_faults(KvCase& fc) {
  sim::Rng rng(fc.seed, 0xfa06b);
  fault::FaultPlan& fp = fc.fault_plan;
  fp.seed = fc.seed ^ 0x6b76a5a5a5a5a5a5ULL;
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

void add_kv_proof_faults(KvCase& fc) {
  sim::Rng rng(fc.seed, 0xbadf1);
  fault::FaultPlan& fp = fc.fault_plan;
  fp.seed = fc.seed ^ 0x9e3779b97f4a7c15ULL;
  // Heavy delay, nothing else: a jitter window much wider than the
  // PUT→release issue gap routinely commits the lock release before the
  // (unflushed, planted-bug) value PUT, so the next lock holder reads stale.
  fp.net.delay_p = 0.45 + 0.35 * rng.next_double();
  fp.net.delay_min = sim::us(2);
  fp.net.delay_max = sim::us(10 + rng.next_below(40));
}

std::vector<int> kv_ghost_ranks(const KvCase& fc) {
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

KvOutcome run_kv_case(const KvCase& fc, std::uint64_t perturb_seed,
                      int shards, std::size_t op_limit) {
  const bool sharded = shards > 1;
  mpi::RunConfig rc;
  rc.machine.profile = net::cray_xc30_regular();
  rc.machine.topo.nodes = fc.nodes;
  rc.machine.topo.cores_per_node =
      fc.mode == KvMode::Casper ? fc.users_per_node + fc.ghosts
                                : fc.users_per_node;
  rc.seed = fc.seed;
  // Sharded engines reject fault plans (runtime.hpp).
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

  kv::KvConfig store_cfg = fc.store;
  store_cfg.skip_unlock_flush = fc.broken_skip_flush;

  KvOutcome out;
  LinearChecker checker;
  ShadowOracle oracle;
  const std::vector<kv::KvOp>& ops = fc.ops;
  auto body = [&](mpi::Env& env) {
    mpi::Comm w = env.world();
    kv::KvStore store(env, store_cfg, w);
    store.set_sink(&checker);
    store.open();
    kv::run_ops(env, store, ops, op_limit, fc.traffic);
    store.close();
    if (env.rank(w) == 0) {
      out.end_time = env.now();
      out.fingerprint = store.fingerprint();
      out.stats = store.global_stats();
      out.acc_ops = store.acc_total(0);
    }
  };

  core::Config cc;
  cc.ghosts_per_node = fc.ghosts;
  cc.binding = fc.binding;
  cc.dynamic = fc.dynamic;
  mpi::Runtime rt(rc, body,
                  fc.mode == KvMode::Casper ? core::layer(cc)
                                            : mpi::LayerFactory{});
  // The oracle is not concurrent_safe; it only rides unsharded runs. The
  // checker is internally synchronized and rides every run.
  if (!sharded) rt.add_observer(&oracle);
  rt.add_observer(&checker);
  rt.run();

  if (obs::kTraceCompiled) {
    rec.merge_shards();
    checker.set_recorder(&rec);
  }
  out.violations = checker.check().size();
  for (const LinearChecker::Violation& v : checker.check()) {
    out.diags.push_back("key " + std::to_string(v.key) + ":\n" + v.diag);
    if (out.diags.size() >= 4) break;
  }
  out.history_hash = checker.history_hash();
  out.checker_ops = checker.ops_recorded();
  out.atomicity = rt.stats().get("atomicity_violations");
  out.run_stats = rt.stats().all();
  if (!sharded) out.divergences = oracle.divergences().size();
  if (obs::kTraceCompiled) {
    for (const auto& [key, val] : rec.metrics().counters()) {
      if (key.rfind("kv.", 0) == 0 || key.rfind("linear.", 0) == 0) {
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

std::string write_kv_repro(const KvRepro& r, const KvCase& fc,
                           const KvOutcome& out, const std::string& dir) {
  char name[128];
  std::snprintf(name, sizeof(name),
                "casper_kv_repro_s%" PRIu64 "_p%" PRIu64 ".txt", r.seed,
                r.perturb);
  const std::string path = dir.empty() ? name : dir + "/" + name;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return {};
  std::fprintf(f, "%s\n", kKvReproHeader);
  std::fprintf(f, "# replay: fuzz_conformance --replay %s\n", path.c_str());
  std::fprintf(f, "kind %s\n", r.kind.c_str());
  std::fprintf(f, "seed %" PRIu64 "\n", r.seed);
  std::fprintf(f, "perturb %" PRIu64 "\n", r.perturb);
  std::fprintf(f, "prefix %d\n", r.prefix_ops);
  std::fprintf(f, "opsper %d\n", r.ops_per_client);
  std::fprintf(f, "reduced %d\n", r.reduced ? 1 : 0);
  std::fprintf(f, "broken %d\n", r.broken ? 1 : 0);
  if (r.lockfree) std::fprintf(f, "lockfree 1\n");
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
  std::fprintf(
      f,
      "case mode=%s nodes=%d users_per_node=%d ghosts=%d binding=%s "
      "dynamic=%d nbuckets=%d assoc=%d lock=%d nkeys=%d zipf=%.3f "
      "read_pct=%d rmw_pct=%d ops_per_client=%d\n",
      to_string(fc.mode), fc.nodes, fc.users_per_node, fc.ghosts,
      binding_name(fc.binding), static_cast<int>(fc.dynamic),
      fc.store.nbuckets, fc.store.assoc, static_cast<int>(fc.store.lock),
      fc.traffic.nkeys, fc.traffic.zipf_s, fc.traffic.read_pct,
      fc.traffic.rmw_pct, fc.traffic.ops_per_client);
  const std::size_t nshow =
      r.prefix_ops > 0
          ? std::min<std::size_t>(static_cast<std::size_t>(r.prefix_ops),
                                  fc.ops.size())
          : fc.ops.size();
  for (std::size_t i = 0; i < nshow && i < 256; ++i) {
    const kv::KvOp& op = fc.ops[i];
    std::fprintf(f,
                 "op %zu client=%d kind=%d key=%" PRIu64 " val=%lld "
                 "think=%" PRIu64 "\n",
                 i, op.client, op.kind, op.key,
                 static_cast<long long>(op.val), op.think);
  }
  for (const std::string& d : out.diags) {
    std::fprintf(f, "violation %s\n", d.c_str());
  }
  std::fprintf(f, "history_hash %" PRIu64 "\n", out.history_hash);
  std::fprintf(f, "checker_ops %zu\n", out.checker_ops);
  std::fclose(f);
  return path;
}

bool is_kv_repro(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return false;
  char line[128] = {};
  const bool ok = std::fgets(line, sizeof line, f) != nullptr &&
                  std::strncmp(line, kKvReproHeader,
                               std::strlen(kKvReproHeader)) == 0;
  std::fclose(f);
  return ok;
}

bool parse_kv_repro(const std::string& path, KvRepro& out) {
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
    } else if (std::sscanf(line, "broken %d", &b) == 1) {
      out.broken = b != 0;
    } else if (std::sscanf(line, "lockfree %d", &b) == 1) {
      out.lockfree = b != 0;
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

bool replay_kv(const KvRepro& r) {
  KvCase fc = make_kv_case(r.seed, r.reduced, r.ops_per_client);
  fc.broken_skip_flush = r.broken;
  if (r.lockfree) fc.store.lock = kv::KvConfig::LockKind::LockFree;
  if (r.plan.active()) fc.fault_plan = r.plan;
  const std::size_t limit =
      r.prefix_ops > 0 ? static_cast<std::size_t>(r.prefix_ops)
                       : ~std::size_t{0};
  const KvOutcome out = run_kv_case(fc, r.perturb, 1, limit);
  if (r.kind == "kv-violation" || r.kind == "kv-miss") {
    return out.violations > 0;
  }
  if (r.kind == "kv-oracle-divergence") {
    return out.divergences > 0 || out.atomicity > 0;
  }
  return !out.clean();
}

namespace {

/// Minimize + write the repro for one failing (case, schedule); `fails`
/// judges a truncated run.
Failure kv_failure(const KvCase& fc, std::uint64_t perturb,
                   const std::string& kind, const KvCampaignOptions& opt,
                   const std::function<bool(const KvOutcome&)>& fails) {
  const int k = minimize_prefix(
      static_cast<int>(fc.ops.size()), [&](int n) {
        return fails(
            run_kv_case(fc, perturb, 1, static_cast<std::size_t>(n)));
      });
  const KvOutcome rerun =
      run_kv_case(fc, perturb, 1, static_cast<std::size_t>(k));
  KvRepro rp;
  rp.seed = fc.seed;
  rp.perturb = perturb;
  rp.prefix_ops = k;
  rp.ops_per_client = fc.traffic.ops_per_client;
  rp.reduced = opt.reduced;
  rp.broken = fc.broken_skip_flush;
  rp.lockfree = fc.store.lock == kv::KvConfig::LockKind::LockFree;
  rp.plan = fc.fault_plan;
  rp.kind = kind;
  Failure fl;
  fl.seed = fc.seed;
  fl.perturb = perturb;
  fl.kind = kind;
  fl.minimized_ops = k;
  fl.repro_path = write_kv_repro(rp, fc, rerun, opt.repro_dir);
  return fl;
}

}  // namespace

KvCampaignResult run_kv_campaign(const KvCampaignOptions& opt) {
  KvCampaignResult res;
  for (int c = 0; c < opt.cases; ++c) {
    const std::uint64_t seed = opt.base_seed + static_cast<std::uint64_t>(c);
    KvCase fc = make_kv_case(seed, opt.reduced);
    if (opt.force_lockfree) fc.store.lock = kv::KvConfig::LockKind::LockFree;
    if (opt.net_faults) add_kv_net_faults(fc);
    ++res.cases_run;
    for (int s = 0; s < opt.schedules; ++s) {
      const std::uint64_t p = perturb_for(seed, s);
      const KvOutcome out = run_kv_case(fc, p);
      ++res.runs;
      res.total_ops += out.checker_ops;
      if (out.violations > 0) {
        res.failures.push_back(kv_failure(
            fc, p, "kv-violation", opt,
            [](const KvOutcome& o) { return o.violations > 0; }));
        break;
      }
      if (out.divergences > 0 || out.atomicity > 0) {
        res.failures.push_back(kv_failure(
            fc, p, "kv-oracle-divergence", opt, [](const KvOutcome& o) {
              return o.divergences > 0 || o.atomicity > 0;
            }));
        break;
      }
    }
    if (opt.verbose && (c + 1) % 50 == 0) {
      std::fprintf(stderr,
                   "kvfuzz: %d/%d cases, %d runs, %" PRIu64
                   " ops, %zu failure(s)\n",
                   c + 1, opt.cases, res.runs, res.total_ops,
                   res.failures.size());
    }
  }
  return res;
}

bool kv_proof(std::uint64_t base_seed, int schedules,
              const std::string& out_dir, bool verbose) {
  for (std::uint64_t seed = base_seed; seed < base_seed + 200; ++seed) {
    KvCase fc = make_kv_case(seed, /*reduced=*/true);
    // The bug needs contended writes: require some write traffic and at
    // least two clients hammering few keys.
    if (fc.traffic.read_pct > 80 || fc.nclients() < 2) continue;
    fc.broken_skip_flush = true;
    add_kv_proof_faults(fc);
    std::uint64_t bad_perturb = 0;
    bool caught = false;
    for (int s = 0; s < schedules; ++s) {
      const std::uint64_t p = perturb_for(seed, s);
      const KvOutcome out = run_kv_case(fc, p);
      if (out.violations > 0) {
        bad_perturb = p;
        caught = true;
        break;
      }
    }
    if (!caught) continue;
    if (verbose) {
      std::fprintf(stderr,
                   "kv_proof: planted bug caught at seed %" PRIu64 "\n",
                   seed);
    }
    // Minimize, write, re-parse, replay — the full repro pipeline must hold.
    const int k = minimize_prefix(
        static_cast<int>(fc.ops.size()), [&](int n) {
          return run_kv_case(fc, bad_perturb, 1,
                             static_cast<std::size_t>(n))
                     .violations > 0;
        });
    const KvOutcome rerun =
        run_kv_case(fc, bad_perturb, 1, static_cast<std::size_t>(k));
    if (rerun.violations == 0) return false;
    KvRepro rp;
    rp.seed = seed;
    rp.perturb = bad_perturb;
    rp.prefix_ops = k;
    rp.ops_per_client = fc.traffic.ops_per_client;
    rp.reduced = true;
    rp.broken = true;
    rp.plan = fc.fault_plan;
    rp.kind = "kv-violation";
    const std::string path = write_kv_repro(rp, fc, rerun, out_dir);
    if (path.empty()) return false;
    KvRepro parsed;
    if (!parse_kv_repro(path, parsed)) return false;
    if (!replay_kv(parsed)) return false;
    if (verbose) {
      std::fprintf(stderr, "kv_proof: minimized to %d ops, repro %s\n", k,
                   path.c_str());
    }
    return true;
  }
  return false;
}

}  // namespace casper::check
