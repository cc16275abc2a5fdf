#include "check/kvfuzz.hpp"

#include <cinttypes>

#include "check/oracle.hpp"
#include "obs/record.hpp"
#include "sim/rng.hpp"

namespace casper::check {

KvCase make_kv_case(std::uint64_t seed, bool reduced) {
  sim::Rng rng(seed, 0x6b76);
  KvCase fc;
  fc.seed = seed;
  draw_deployment(rng, fc, /*draw_mode=*/true);
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
  fc.traffic.ops_per_client = reduced
                                  ? 6 + static_cast<int>(rng.next_below(10))
                                  : 20 + static_cast<int>(rng.next_below(30));
  fc.traffic.think_mean = sim::us(1 + rng.next_below(6));
  fc.traffic.seed = seed;
  fc.ops = kv::make_ops(fc.traffic, fc.nusers());
  return fc;
}

void add_kv_net_faults(KvCase& fc) {
  add_lossy_network(fc, 0xfa06b, 0x6b76a5a5a5a5a5a5ULL);
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

KvOutcome run_kv_case(const KvCase& fc, std::uint64_t perturb_seed,
                      int shards, std::size_t op_limit) {
  const bool sharded = shards > 1;
  mpi::RunConfig rc = run_config(fc, perturb_seed, shards);

  obs::Recorder rec;
  if (obs::kTraceCompiled) rc.recorder = &rec;

  kv::KvConfig store_cfg = fc.store;
  store_cfg.skip_unlock_flush = fc.bug == Bug::KvSkipUnlockFlush;

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

  mpi::Runtime rt(rc, body, layer_for(fc, casper_config(fc)));
  // The oracle is not concurrent_safe; it only rides unsharded runs. The
  // checker is internally synchronized and rides every run.
  if (!sharded) rt.add_observer(&oracle);
  rt.add_observer(&checker);
  rt.run();

  finish_checked_run(out, rt, rec, checker, sharded ? nullptr : &oracle, fc,
                     "kv.");
  return out;
}

KvCase KvWorkload::generate(std::uint64_t seed) const {
  KvCase fc = make_kv_case(seed, spec.reduced);
  if (spec.lockfree) fc.store.lock = kv::KvConfig::LockKind::LockFree;
  if (spec.net_faults) add_kv_net_faults(fc);
  fc.bug = spec.bug;
  if (fc.bug == Bug::KvSkipUnlockFlush) add_kv_proof_faults(fc);
  return fc;
}

KvOutcome KvWorkload::run(const KvCase& fc, std::uint64_t perturb,
                          int prefix) const {
  return run_kv_case(fc, perturb, 1, static_cast<std::size_t>(prefix));
}

std::string KvWorkload::judge(const KvCase&, const KvOutcome&,
                              const KvOutcome& out) const {
  if (out.violations > 0) return "kv-violation";
  if (out.divergences > 0 || out.atomicity > 0) return "kv-oracle-divergence";
  return "";
}

bool KvWorkload::candidate(const KvCase& fc) const {
  return fc.bug != Bug::KvSkipUnlockFlush ||
         (fc.traffic.read_pct <= 80 && fc.nusers() >= 2);
}

void KvWorkload::describe(std::FILE* f, const KvCase& fc,
                          const KvOutcome& out, int prefix) const {
  std::fprintf(f,
               "case %s nbuckets=%d assoc=%d lock=%d nkeys=%d zipf=%.3f "
               "read_pct=%d rmw_pct=%d ops_per_client=%d\n",
               to_string(fc).c_str(), fc.store.nbuckets, fc.store.assoc,
               static_cast<int>(fc.store.lock), fc.traffic.nkeys,
               fc.traffic.zipf_s, fc.traffic.read_pct, fc.traffic.rmw_pct,
               fc.traffic.ops_per_client);
  const std::size_t nshow =
      std::min<std::size_t>(static_cast<std::size_t>(prefix), fc.ops.size());
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
}

}  // namespace casper::check
