// One fuzz campaign driver for every workload the harness checks.
//
// A workload — RMA conformance (check/fuzz.hpp), the RMA-backed KV store
// (check/kvfuzz.hpp), or the MWCAS library (check/mwfuzz.hpp) — supplies a
// small adapter:
//   generate(seed)             the case for a seed, shaped by a CaseSpec
//   run(case, perturb, prefix) one simulated run of the first `prefix` ops
//   judge(case, ref, out)      the failure kind of `out`, "" when clean;
//                              `ref` is the schedule-0 outcome
//   candidate(case)            whether a planted bug has a surface here
//   describe(file, case, out, prefix)
//                              the human-readable case/op/diagnostic lines
// and this file owns everything else: the seeds x schedules loop, prefix
// minimization, the repro format, replay, and the planted-bug proof.
//
// Repro file. The first line names the workload; the header lines after it
// are shared, then the FaultPlan block, then the workload's own lines:
//
//   workload kv                       # rma | kv | mwcas
//   # replay: fuzz_conformance --replay FILE
//   kind kv-violation                 # the judge's verdict
//   seed 38                           # regenerates the whole case
//   perturb 0                         # the failing schedule
//   base_perturb 0                    # the schedule `ref` came from
//   prefix 40                         # minimized op prefix
//   reduced 1                         # generator scale
//   bug kv-skip-unlock-flush          # CaseSpec knobs, only when set
//   netfault seed=... drop=... ...    # FaultPlan block (when active)
//   kill rank=3 at=20000
//   stall rank=3 at=5000 dur=1000
//   case mode=thread nodes=2 ...      # workload lines: for humans only
//   op 0 client=0 kind=2 ...
//
// Replay needs only the shared lines and the plan: the case is regenerated
// from its seed and CaseSpec, and the recorded plan replaces whatever plan
// the generator drew.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/casper.hpp"
#include "fault/plan.hpp"
#include "mpi/runtime.hpp"

namespace casper::sim {
class Rng;
}

namespace casper::check {

class ShadowOracle;

/// How one-sided progress is made in a deployment: by the target itself
/// (original MPI), by an oversubscribed progress thread per rank, or by
/// Casper ghost processes.
enum class ProgressMode : std::uint8_t { Original = 0, Thread = 1, Casper = 2 };
const char* to_string(ProgressMode m);

enum class Workload : std::uint8_t { Rma, Kv, Mwcas };
const char* to_string(Workload w);

/// The deliberately planted bugs the proof pipeline must catch.
enum class Bug : std::uint8_t {
  None,
  FlipSegmentBinding,  ///< rma: core::Config::Fault::flip_segment_binding
  KvSkipUnlockFlush,   ///< kv: KvConfig::skip_unlock_flush + delay-heavy net
  MwSkipHelp,          ///< mwcas: MwConfig::bug_skip_help
  MwTornInstall,       ///< mwcas: MwConfig::bug_torn_install
  MwStaleStatus,       ///< mwcas: MwConfig::bug_stale_status
};
const char* to_string(Bug b);

/// Where and how a generated case runs; every workload's case is one.
struct Deployment {
  std::uint64_t seed = 0;  ///< case seed; also seeds the simulated machine
  ProgressMode mode = ProgressMode::Casper;
  int nodes = 1;
  int users_per_node = 2;
  int ghosts = 1;  ///< ghosts per node (Casper mode only)
  core::Binding binding = core::Binding::Rank;
  core::DynamicLb dynamic = core::DynamicLb::None;
  /// Injected network/process faults. Inert unless `fault_plan.active()`.
  fault::FaultPlan fault_plan;
  /// The deliberately planted bug the run carries (one of its workload's).
  Bug bug = Bug::None;

  int nusers() const { return nodes * users_per_node; }
};

/// Machine, schedule and fault setup of one run. Sharded engines reject fault
/// plans, so the plan only rides unsharded runs.
mpi::RunConfig run_config(const Deployment& d, std::uint64_t perturb_seed,
                          int shards = 1);
/// The deployment's ghosts, binding and dynamic load-balancing policy.
core::Config casper_config(const Deployment& d);
/// Casper's layer in Casper mode; no layer otherwise.
mpi::LayerFactory layer_for(const Deployment& d, const core::Config& cc);
/// The fault.* / recovery.* counters of a run (empty without a fault plan).
std::map<std::string, std::uint64_t> fault_stats(
    const Deployment& d, const std::map<std::string, std::uint64_t>& all);

/// What every checked-history run (KV, MWCAS) reports besides its
/// workload's own fields: the checker's verdict, the shadow oracle's, and
/// the run's counters.
struct CheckedOutcome {
  std::size_t violations = 0;      ///< checker violations
  std::vector<std::string> diags;  ///< the first few violation diagnostics
  std::uint64_t history_hash = 0;  ///< canonical-history FNV
  std::size_t checker_ops = 0;     ///< events the checker recorded
  sim::Time end_time = 0;          ///< rank 0 virtual end time
  std::uint64_t fingerprint = 0;   ///< final-memory digest
  std::uint64_t divergences = 0;   ///< shadow-oracle (unsharded only)
  std::uint64_t atomicity = 0;     ///< runtime atomicity violations
  std::map<std::string, std::uint64_t> metrics;  ///< <workload>. + linear.*
  std::map<std::string, std::uint64_t> fault_stats;  ///< fault.* / recovery.*
};

/// The tail every checked-history run shares, after rt.run(): point the
/// checker at the run's recorder (its linear.* counters join the registry),
/// check, and fill `out` from the checker, the oracle (null on sharded runs,
/// which it cannot ride) and one snapshot of the run's counters, keeping the
/// `metric_prefix` + "linear." ones. Defined for LinearChecker and MwChecker.
template <class Checker>
void finish_checked_run(CheckedOutcome& out, mpi::Runtime& rt,
                        obs::Recorder& rec, Checker& checker,
                        const ShadowOracle* oracle, const Deployment& d,
                        const char* metric_prefix);

/// Draws, in this order: 1-2 nodes, 1-3 users per node (at least 2 users
/// in all), 1-2 ghosts, the progress mode when `draw_mode` (Casper twice as
/// often; RMA cases are always Casper and their stream has no such draw),
/// binding, and dynamic policy. The order is each corpus's RNG stream.
void draw_deployment(sim::Rng& rng, Deployment& d, bool draw_mode);
/// World ranks of the deployment's ghosts (empty unless Casper mode): kill
/// targets for chaos coverage.
std::vector<int> ghost_ranks(const Deployment& d);
/// Seed-derived lossy network: some mix of drop / duplicate / delay-reorder /
/// ack-drop. `salt` and `seed_xor` give each workload its own stream.
void add_lossy_network(Deployment& d, std::uint64_t salt,
                       std::uint64_t seed_xor);
/// "mode=... nodes=... users_per_node=... ghosts=... binding=... dynamic=..."
std::string to_string(const Deployment& d);

/// Everything besides the seed that shapes a generated case.
struct CaseSpec {
  Workload workload = Workload::Rma;
  bool reduced = true;     ///< ctest-scale op counts and slot sizes
  /// --faults: a seed-derived lossy network on every case. Not recorded in
  /// repros, which carry the drawn plan itself.
  bool net_faults = false;
  int races = 0;           ///< rma --races N: planted conflicting pairs
  bool adaptive = false;   ///< rma --adaptive: controller on for every case
  bool lockfree = false;   ///< kv --lockfree: MWCAS-guarded bucket mode
  Bug bug = Bug::None;     ///< planted bug every case runs with
};

struct CampaignOptions {
  CaseSpec spec;
  std::uint64_t base_seed = 1;
  int cases = 200;
  int schedules = 4;
  std::string repro_dir = ".";
  bool verbose = false;  ///< progress line every 50 cases
};

/// One caught failure, minimized and written.
struct Failure {
  std::uint64_t seed = 0;
  std::uint64_t perturb = 0;
  int schedule = 0;
  std::string kind;
  int minimized_ops = 0;
  std::string repro_path;
};

struct CampaignResult {
  int cases_run = 0;
  int runs = 0;
  /// Observed commits (rma) or checked ops (kv, mwcas) over all runs.
  std::uint64_t checked = 0;
  std::vector<Failure> failures;
};

struct ProofResult {
  bool ok = false;  ///< caught, minimized, written, re-parsed and replayed
  Failure failure;  ///< where the bug was caught
  std::string error;  ///< the broken link when !ok
};

class Campaign {
 public:
  explicit Campaign(CampaignOptions opt) : opt_(std::move(opt)) {}

  /// `cases` seeds x `schedules` schedules; stops a case at its first
  /// failing schedule, minimizes it and writes a repro.
  CampaignResult run() const;
  /// The bugs this campaign's workload proves. None in racy mode: it judges
  /// the race analyzer, and planted races would muddy the detection.
  std::vector<Bug> planted_bugs() const;
  /// Plant `bug` in candidate cases from base_seed on until a schedule
  /// catches it; minimize, write, re-parse and replay the repro.
  ProofResult prove(Bug bug) const;

 private:
  CampaignOptions opt_;
};

/// Smallest k in [1, total] for which `fails(k)` holds, assuming rough
/// monotonicity (verified; falls back to `total` when the assumption broke).
int minimize_prefix(int total, const std::function<bool(int)>& fails);
/// Schedule perturb seed of schedule index `s` for a case (s == 0 → 0).
std::uint64_t perturb_for(std::uint64_t seed, int s);

/// Everything a repro file records.
struct Repro {
  CaseSpec spec;
  std::string kind;
  std::uint64_t seed = 0;
  std::uint64_t perturb = 0;
  std::uint64_t base_perturb = 0;
  int prefix = 0;
  fault::FaultPlan plan;
};

/// Regenerate the case, run it once at (perturb, prefix) for the diagnostic
/// lines, and write the repro file into `dir`; returns its path ("" on I/O
/// error).
std::string write_repro(const Repro& r, const std::string& dir);
/// False when the file is unreadable, its first line names no workload, the
/// kind or seed is missing, or it names an unknown bug.
bool parse_repro(const std::string& path, Repro& out);
/// Re-run a parsed repro; true when the judge returns the recorded kind.
bool replay(const Repro& r);

}  // namespace casper::check
