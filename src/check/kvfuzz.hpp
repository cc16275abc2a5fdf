// Seeded KV-workload fuzzing: the KV workload of check::Campaign
// (check/campaign.hpp), driving the RMA-backed KV store (src/kv/) instead of
// raw op streams.
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
//
// The planted bug (Bug::KvSkipUnlockFlush: KvConfig::skip_unlock_flush, the
// value PUT left unordered w.r.t. the lock release, under a delay-heavy
// network) must be caught as a stale read by the campaign's proof pipeline.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "check/campaign.hpp"
#include "check/linear.hpp"
#include "kv/kv.hpp"
#include "kv/traffic.hpp"

namespace casper::check {

/// A complete generated KV test case. The op list is pre-materialized so a
/// prefix truncation is a pure prefix of every client's program.
struct KvCase : Deployment {
  kv::KvConfig store;
  kv::TrafficConfig traffic;
  std::vector<kv::KvOp> ops;
};

/// Deterministically generate the case for `seed`. `reduced` shrinks op
/// counts for the ctest-time corpus.
KvCase make_kv_case(std::uint64_t seed, bool reduced);

/// Seed-derived lossy network for chaos KV runs.
void add_kv_net_faults(KvCase& fc);
/// Delay-heavy plan for the planted bug: wide delay jitter reorders the
/// unflushed value PUT past the lock release.
void add_kv_proof_faults(KvCase& fc);

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

/// The KV workload adapter of check::Campaign.
struct KvWorkload {
  using Case = KvCase;
  using Outcome = KvOutcome;
  CaseSpec spec;

  /// make_kv_case; then --lockfree, --faults, and the planted bug with its
  /// delay-heavy network.
  Case generate(std::uint64_t seed) const;
  Outcome run(const Case& fc, std::uint64_t perturb, int prefix) const;
  /// "kv-violation", then "kv-oracle-divergence".
  std::string judge(const Case& fc, const Outcome& ref,
                    const Outcome& out) const;
  /// The planted bug needs contended writes: some write traffic and at
  /// least two clients hammering few keys.
  bool candidate(const Case& fc) const;
  static std::uint64_t tally(const Outcome& out) { return out.checker_ops; }
  void describe(std::FILE* f, const Case& fc, const Outcome& out,
                int prefix) const;
};

}  // namespace casper::check
