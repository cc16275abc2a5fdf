// Seeded MWCAS-program fuzzing: the MWCAS workload of check::Campaign
// (check/campaign.hpp), driving src/mwcas/ over a shared word heap.
//
// A seed deterministically generates a case — progress mode, topology,
// Casper binding/dynamic policy, heap shape (words per rank), and a
// pre-materialized per-client program of reads and 1–4-word MWCASes over a
// deliberately tiny global word pool (so descriptors collide and the helping
// protocol actually runs) — replayed under perturbed fiber schedules with
// the MwChecker recording every operation, the shadow oracle attached
// (unsharded runs), and the race analyzer riding throughout. A case fails
// when
//   * the MWCAS history has no legal linearization ("mwcas-violation":
//     a torn install, lost update, or leaked descriptor),
//   * the oracle diverges / the atomicity detector fires / the race
//     analyzer flags a conflict ("mwcas-oracle-divergence": the protocol
//     must be entirely atomic-class RMA, so ANY conflict is a bug), or
//   * a perturbed schedule's outcome differs from schedule 0 in a count
//     the client programs fix ("mwcas-mismatch"; see mw_outcomes_differ).
//
// Each planted protocol bug (Bug::MwSkipHelp, MwTornInstall, MwStaleStatus;
// see MwConfig) must be caught by the campaign's proof pipeline under
// contention.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "check/campaign.hpp"
#include "check/mwlinear.hpp"
#include "mwcas/mwcas.hpp"

namespace casper::check {

/// One generated program step. width == 0 is a single-word read; width >= 1
/// is an MWCAS over `width` distinct global words (expected values are
/// gathered by reads at run time; `stale` inserts a think window between
/// gather and CAS so the op contends on stale expectations).
struct MwProgOp {
  int client = 0;
  int width = 0;
  int word[8] = {};  ///< global word ids, distinct within one op
  sim::Time think = 0;
  bool stale = false;
};

/// A complete generated MWCAS test case.
struct MwCase : Deployment {
  int words_per_rank = 2;  ///< heap data words each rank owns
  mwcas::MwConfig mw;
  std::vector<MwProgOp> ops;

  int total_words() const { return nusers() * words_per_rank; }
};

MwCase make_mw_case(std::uint64_t seed, bool reduced);

/// Seed-derived lossy network for chaos MWCAS runs.
void add_mw_net_faults(MwCase& fc);

struct MwOutcome : CheckedOutcome {
  std::uint64_t semantic_hash = 0;  ///< timing-free per-client history digest
  mwcas::MwStats stats;             ///< cluster-wide protocol counters
  std::uint64_t race_conflicts = 0;

  bool clean() const {
    return violations == 0 && divergences == 0 && atomicity == 0 &&
           race_conflicts == 0;
  }
};

MwOutcome run_mw_case(const MwCase& fc, std::uint64_t perturb_seed,
                      int shards = 1,
                      std::size_t op_limit = ~std::size_t{0});

/// The cross-schedule invariance gate: true when two schedules of one case
/// disagree on a count the client programs fix on their own (checked ops,
/// MWCAS ops, reads, interrupted ops, recoveries). Completion times, the
/// timed and semantic histories, the heap fingerprint and the race-outcome
/// counters are exempt in every mode: two requests can reach one serial
/// server at the same virtual instant, and the tie order moves completion
/// times and can decide which contended CAS lands first. Every resolution is
/// a legal linearizable execution, and each run is individually gated on
/// checker/oracle/race/atomicity. Active fault plans are exempt entirely.
bool mw_outcomes_differ(const MwCase& fc, const MwOutcome& a,
                        const MwOutcome& b);

/// The MWCAS workload adapter of check::Campaign.
struct MwWorkload {
  using Case = MwCase;
  using Outcome = MwOutcome;
  CaseSpec spec;

  /// make_mw_case; then --faults and the planted bug.
  Case generate(std::uint64_t seed) const;
  Outcome run(const Case& fc, std::uint64_t perturb, int prefix) const;
  /// "mwcas-violation", then "mwcas-oracle-divergence", then
  /// "mwcas-mismatch" (mw_outcomes_differ against `ref`).
  std::string judge(const Case& fc, const Outcome& ref,
                    const Outcome& out) const;
  /// Every planted bug needs real contention: several clients hammering a
  /// word pool small enough that descriptors collide mid-protocol.
  bool candidate(const Case& fc) const;
  static std::uint64_t tally(const Outcome& out) { return out.checker_ops; }
  void describe(std::FILE* f, const Case& fc, const Outcome& out,
                int prefix) const;
};

}  // namespace casper::check
