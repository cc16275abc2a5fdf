// Seeded KV-workload fuzzing: the linearizability analogue of the RMA
// conformance fuzzer (check/fuzz.hpp), driving the RMA-backed KV store
// (src/kv/) instead of raw op streams.
//
// A seed deterministically generates a KV case — progress mode (original /
// thread / Casper), topology, Casper binding and dynamic-LB policy, store
// shape (buckets, associativity, lock kind), and a pre-materialized Zipfian
// op mix — which is replayed under several perturbed fiber schedules with
// the LinearChecker riding as the store's history sink AND the shadow
// oracle attached (unsharded runs). A case fails when
//   * the checker finds a per-key history with no legal linearization
//     ("kv-violation": the lock protocol lost an update / served a stale
//     read), or
//   * the shadow oracle diverges / the runtime's atomicity detector fires
//     ("kv-oracle-divergence": the runtime itself broke).
// Failures are minimized to the shortest failing global op prefix and
// written as replayable repro files mirroring the conformance format.
//
// kv_proof() is the positive gate (the fault_proof analogue): it reruns
// seeds with the planted KV bug enabled (KvConfig::skip_unlock_flush — the
// value PUT left unordered w.r.t. the lock release) under a delay-heavy
// network, requires the checker to catch the resulting stale read, minimizes
// it, writes the repro, and replays it.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "check/fuzz.hpp"
#include "check/linear.hpp"
#include "core/casper.hpp"
#include "fault/plan.hpp"
#include "kv/kv.hpp"
#include "kv/traffic.hpp"

namespace casper::check {

enum class KvMode : std::uint8_t { Original = 0, Thread = 1, Casper = 2 };
const char* to_string(KvMode m);

/// A complete generated KV test case. The op list is pre-materialized so a
/// prefix truncation is a pure prefix of every client's program.
struct KvCase {
  std::uint64_t seed = 0;
  KvMode mode = KvMode::Casper;
  int nodes = 1;
  int users_per_node = 2;
  int ghosts = 1;  ///< Casper mode only
  core::Binding binding = core::Binding::Rank;
  core::DynamicLb dynamic = core::DynamicLb::None;
  kv::KvConfig store;
  kv::TrafficConfig traffic;
  fault::FaultPlan fault_plan;  ///< inert unless active()
  /// Planted bug: run the store with skip_unlock_flush (tests / kv_proof).
  bool broken_skip_flush = false;
  std::vector<kv::KvOp> ops;

  int nclients() const { return nodes * users_per_node; }
};

/// Deterministically generate the case for `seed`. `reduced` shrinks op
/// counts for the ctest-time corpus; `ops_per_client` > 0 overrides the
/// seed-drawn per-client op count (repro files record it).
KvCase make_kv_case(std::uint64_t seed, bool reduced, int ops_per_client = 0);

/// Seed-derived lossy network for chaos KV runs (mirrors add_net_faults).
void add_kv_net_faults(KvCase& fc);
/// Delay-heavy plan for kv_proof: wide delay jitter reorders the unflushed
/// value PUT past the lock release, manifesting the planted bug.
void add_kv_proof_faults(KvCase& fc);
/// World ranks of the case's ghosts (empty unless Casper mode) — kill
/// targets for chaos coverage.
std::vector<int> kv_ghost_ranks(const KvCase& fc);

/// Outcome of one simulated run of a KV case.
struct KvOutcome {
  std::size_t violations = 0;           ///< linearizability violations
  std::vector<std::string> diags;       ///< per-violation diagnostics
  std::uint64_t history_hash = 0;       ///< canonical-history FNV
  std::size_t checker_ops = 0;          ///< events the checker recorded
  sim::Time end_time = 0;               ///< rank 0 virtual end time
  std::uint64_t fingerprint = 0;        ///< final-table digest
  kv::KvStats stats;                    ///< cluster-wide client counters
  std::uint64_t acc_ops = 0;            ///< server-side ACC op total
  std::uint64_t divergences = 0;        ///< shadow-oracle (unsharded only)
  std::uint64_t atomicity = 0;          ///< runtime atomicity violations
  std::map<std::string, std::uint64_t> run_stats;   ///< engine counters
  std::map<std::string, std::uint64_t> metrics;     ///< kv.* / linear.*
  std::map<std::string, std::uint64_t> fault_stats; ///< fault.* / recovery.*

  bool clean() const {
    return violations == 0 && divergences == 0 && atomicity == 0;
  }
};

/// Run the case once under schedule `perturb_seed` and `shards` engine
/// shards. Sharded runs skip the (not concurrent_safe) shadow oracle; the
/// checker rides every run. `op_limit` truncates the global op list
/// (minimizer support).
KvOutcome run_kv_case(const KvCase& fc, std::uint64_t perturb_seed,
                      int shards = 1,
                      std::size_t op_limit = ~std::size_t{0});

/// Everything needed to replay one KV failure.
struct KvRepro {
  std::uint64_t seed = 0;
  std::uint64_t perturb = 0;
  int prefix_ops = 0;       ///< minimized global op prefix (0 = all)
  int ops_per_client = 0;   ///< generator override used (0 = seed-drawn)
  bool reduced = true;
  bool broken = false;      ///< skip_unlock_flush was planted
  bool lockfree = false;    ///< store ran in LockKind::LockFree
  fault::FaultPlan plan;
  /// "kv-violation" | "kv-oracle-divergence" | "kv-miss" (proof bookkeeping:
  /// planted bug not caught).
  std::string kind;
};

std::string write_kv_repro(const KvRepro& r, const KvCase& fc,
                           const KvOutcome& out, const std::string& dir);
bool parse_kv_repro(const std::string& path, KvRepro& out);
/// True when `path` starts with the KV repro header (fuzz_conformance
/// --replay dispatches on this).
bool is_kv_repro(const std::string& path);
/// Re-run a parsed KV repro; true when the recorded failure reproduces.
bool replay_kv(const KvRepro& r);

struct KvCampaignOptions {
  std::uint64_t base_seed = 1;
  int cases = 200;
  int schedules = 4;
  bool reduced = true;
  bool net_faults = false;  ///< chaos corpus: seed-derived lossy networks
  /// Override every case's store to LockKind::LockFree (the MWCAS-guarded
  /// bucket mode) regardless of the seed-drawn lock kind.
  bool force_lockfree = false;
  std::string repro_dir = ".";
  bool verbose = false;
};

struct KvCampaignResult {
  int cases_run = 0;
  int runs = 0;
  std::uint64_t total_ops = 0;  ///< logical KV ops checked
  std::vector<Failure> failures;
};

/// Run `cases` seeds × `schedules` schedules of clean-protocol KV cases;
/// the checker must stay at zero violations (and the oracle clean) on every
/// run. Failures are minimized and written as repro files.
KvCampaignResult run_kv_campaign(const KvCampaignOptions& opt);

/// Positive detection gate: scan seeds from `base_seed`, planting the
/// skip-unlock-flush bug under a delay-heavy network, until the checker
/// catches a violation; minimize it, write the repro, and replay it. True
/// when the whole pipeline held (mirrors fuzz_conformance's fault_proof).
bool kv_proof(std::uint64_t base_seed, int schedules,
              const std::string& out_dir, bool verbose);

}  // namespace casper::check
