// Seeded MWCAS-program fuzzing: the multi-word-atomics analogue of the KV
// fuzzer (check/kvfuzz.hpp), driving src/mwcas/ over a shared word heap.
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
// mwcas_proof() is the positive gate: for EACH planted bug (skip-help,
// torn-install, stale-status — see MwConfig) it scans seeds under contention
// until the checker catches the bug, minimizes the failing global op prefix,
// writes a replayable repro, re-parses and replays it.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "check/fuzz.hpp"
#include "check/kvfuzz.hpp"
#include "check/mwlinear.hpp"
#include "fault/plan.hpp"
#include "mwcas/mwcas.hpp"

namespace casper::check {

/// Which planted protocol bug (if any) a case runs with.
enum class MwBug : std::uint8_t {
  None = 0,
  SkipHelp = 1,
  TornInstall = 2,
  StaleStatus = 3,
};
const char* to_string(MwBug b);

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
struct MwCase {
  std::uint64_t seed = 0;
  KvMode mode = KvMode::Casper;
  int nodes = 1;
  int users_per_node = 2;
  int ghosts = 1;
  core::Binding binding = core::Binding::Rank;
  core::DynamicLb dynamic = core::DynamicLb::None;
  int words_per_rank = 2;  ///< heap data words each rank owns
  mwcas::MwConfig mw;
  MwBug bug = MwBug::None;
  fault::FaultPlan fault_plan;
  std::vector<MwProgOp> ops;

  int nclients() const { return nodes * users_per_node; }
  int total_words() const { return nclients() * words_per_rank; }
};

MwCase make_mw_case(std::uint64_t seed, bool reduced, int ops_per_client = 0);

/// Seed-derived lossy network for chaos MWCAS runs.
void add_mw_net_faults(MwCase& fc);
/// World ranks of the case's ghosts (Casper mode only).
std::vector<int> mw_ghost_ranks(const MwCase& fc);

struct MwOutcome {
  std::size_t violations = 0;
  std::vector<std::string> diags;
  std::uint64_t history_hash = 0;
  std::uint64_t semantic_hash = 0;  ///< timing-free per-client history digest
  std::size_t checker_ops = 0;
  sim::Time end_time = 0;
  std::uint64_t fingerprint = 0;  ///< heap data words (descriptors excluded)
  mwcas::MwStats stats;           ///< cluster-wide protocol counters
  std::uint64_t divergences = 0;
  std::uint64_t atomicity = 0;
  std::uint64_t race_conflicts = 0;
  std::map<std::string, std::uint64_t> run_stats;
  std::map<std::string, std::uint64_t> metrics;     ///< mwcas.* / linear.*
  std::map<std::string, std::uint64_t> fault_stats;

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

/// Everything needed to replay one MWCAS failure.
struct MwRepro {
  std::uint64_t seed = 0;
  std::uint64_t perturb = 0;
  int prefix_ops = 0;
  int ops_per_client = 0;
  bool reduced = true;
  MwBug bug = MwBug::None;
  fault::FaultPlan plan;
  /// "mwcas-violation" | "mwcas-oracle-divergence" | "mwcas-mismatch".
  std::string kind;
};

std::string write_mw_repro(const MwRepro& r, const MwCase& fc,
                           const MwOutcome& out, const std::string& dir);
bool parse_mw_repro(const std::string& path, MwRepro& out);
bool is_mw_repro(const std::string& path);
bool replay_mw(const MwRepro& r);

struct MwCampaignOptions {
  std::uint64_t base_seed = 1;
  int cases = 100;
  int schedules = 4;
  bool reduced = true;
  bool net_faults = false;
  std::string repro_dir = ".";
  bool verbose = false;
};

struct MwCampaignResult {
  int cases_run = 0;
  int runs = 0;
  std::uint64_t total_ops = 0;
  std::vector<Failure> failures;
};

/// Clean-protocol corpus: checker, oracle, race analyzer, and cross-schedule
/// exact-match all gate every case.
MwCampaignResult run_mw_campaign(const MwCampaignOptions& opt);

/// Positive detection gate over ALL THREE planted bugs; each must be caught,
/// minimized, written, re-parsed, and replayed.
bool mwcas_proof(std::uint64_t base_seed, int schedules,
                 const std::string& out_dir, bool verbose);

}  // namespace casper::check
