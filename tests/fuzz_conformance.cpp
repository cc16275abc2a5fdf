// Fuzz campaign driver (not a gtest binary): one check::Campaign over one of
// three workloads, followed by the proof that the workload's planted bugs
// are caught.
//
//   fuzz_conformance [--cases N] [--schedules N] [--base-seed N] [--full]
//                    [--faults] [--races N | --adaptive | --kv N [--lockfree]
//                    | --mwcas N] [--out DIR] [--no-fault-proof] [--verbose]
//   fuzz_conformance --replay FILE      # re-run a recorded repro
//
// Default (what ctest invokes): --cases seeded RMA programs, each run under
// --schedules perturbed fiber schedules with the shadow oracle and the race
// analyzer attached. --races N plants N same-epoch conflicting access pairs
// per case and fails unless the analyzer flags every one in every schedule
// ("race-miss"); in the default clean corpus any analyzer conflict is a
// "race-conflict". --adaptive forces the online progress controller on for
// every case instead of the seed stream's ~25%.
//
// --kv N runs N seeded KV-store workloads (Zipfian op mixes over the
// RMA-backed store, all three progress modes) with the linearizability
// checker and the shadow oracle attached; --lockfree runs every store in the
// MWCAS-guarded lock-free bucket mode. --mwcas N runs N seeded multi-word-CAS
// programs over tiny contended word heaps with the MWCAS linearizability
// adapter, the oracle and the race analyzer attached, and fails on any
// cross-schedule mismatch of a program-fixed count as well.
//
// --faults composes with every workload: each case also runs under a
// seed-derived lossy network, and a failure's repro embeds the FaultPlan.
//
// Every failure is minimized to its shortest failing op prefix and written
// as a repro file in --out. After the campaign, the proof plants each of the
// workload's bugs (the flipped segment binding; the KV store's skipped
// unlock flush; the MWCAS skip-help, torn-install and stale-status bugs) and
// REQUIRES the campaign to catch, minimize, write, re-parse and replay it —
// a harness that misses a planted bug has lost its teeth. --no-fault-proof
// skips it; racy mode has none. Exits 0 only when the corpus is clean and
// every proof held; 2 on a usage error.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "check/campaign.hpp"

using namespace casper;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: fuzz_conformance [--cases N] [--schedules N] "
               "[--base-seed N] [--full] [--faults] [--races N | --adaptive "
               "| --kv N [--lockfree] | --mwcas N] [--out DIR] "
               "[--no-fault-proof] [--verbose] | --replay FILE\n");
  return 2;
}

int replay_file(const char* path) {
  check::Repro r;
  if (!check::parse_repro(path, r)) {
    std::fprintf(stderr,
                 "replay: %s is not a repro (unreadable, or its first line "
                 "names no workload: rma|kv|mwcas)\n",
                 path);
    return 2;
  }
  const bool reproduced = check::replay(r);
  std::printf("replay %s: %s (%s %s, seed %" PRIu64 ", perturb %" PRIu64
              ", %d op prefix)\n",
              path, reproduced ? "REPRODUCED" : "did not reproduce",
              check::to_string(r.spec.workload), r.kind.c_str(), r.seed,
              r.perturb, r.prefix);
  return reproduced ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  check::CampaignOptions opt;
  check::CaseSpec& spec = opt.spec;
  bool do_fault_proof = true;
  int kv_cases = 0;
  int mw_cases = 0;
  const char* replay_path = nullptr;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    auto count = [&](int& dst) {
      const char* v = next();
      if (v != nullptr) dst = std::atoi(v);
      return v != nullptr && dst > 0;
    };
    if (a == "--cases") {
      const char* v = next();
      if (v == nullptr) return usage();
      opt.cases = std::atoi(v);
    } else if (a == "--schedules") {
      const char* v = next();
      if (v == nullptr) return usage();
      opt.schedules = std::atoi(v);
    } else if (a == "--base-seed") {
      const char* v = next();
      if (v == nullptr) return usage();
      opt.base_seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--out") {
      const char* v = next();
      if (v == nullptr) return usage();
      opt.repro_dir = v;
    } else if (a == "--full") {
      spec.reduced = false;
    } else if (a == "--faults") {
      spec.net_faults = true;
    } else if (a == "--races") {
      if (!count(spec.races)) return usage();
    } else if (a == "--kv") {
      if (!count(kv_cases)) return usage();
    } else if (a == "--lockfree") {
      spec.lockfree = true;
    } else if (a == "--mwcas") {
      if (!count(mw_cases)) return usage();
    } else if (a == "--adaptive") {
      spec.adaptive = true;
    } else if (a == "--no-fault-proof") {
      do_fault_proof = false;
    } else if (a == "--verbose") {
      opt.verbose = true;
    } else if (a == "--replay") {
      replay_path = next();
      if (replay_path == nullptr) return usage();
    } else {
      return usage();
    }
  }
  // One workload per run; each modifier belongs to one workload.
  if (kv_cases > 0 && mw_cases > 0) return usage();
  if ((kv_cases > 0 || mw_cases > 0) && (spec.races > 0 || spec.adaptive)) {
    return usage();
  }
  if (spec.lockfree && kv_cases == 0) return usage();

  if (replay_path != nullptr) return replay_file(replay_path);

  const char* mode_tag = "";
  const char* noun = "observed commits";
  if (kv_cases > 0) {
    spec.workload = check::Workload::Kv;
    opt.cases = kv_cases;
    mode_tag = " [--kv]";
    noun = "checked KV op(s)";
  } else if (mw_cases > 0) {
    spec.workload = check::Workload::Mwcas;
    opt.cases = mw_cases;
    mode_tag = " [--mwcas]";
    noun = "checked MWCAS op(s)";
  }

  const check::Campaign campaign(opt);
  const check::CampaignResult res = campaign.run();
  std::printf("fuzz_conformance%s%s%s%s%s: %d case(s) x %d schedule(s) = %d "
              "run(s), %" PRIu64 " %s, %zu failure(s)\n",
              mode_tag, spec.net_faults ? " [--faults]" : "",
              spec.races > 0 ? " [--races]" : "",
              spec.adaptive ? " [--adaptive]" : "",
              spec.lockfree ? " [--lockfree]" : "", res.cases_run,
              opt.schedules, res.runs, res.checked, noun,
              res.failures.size());
  for (const check::Failure& f : res.failures) {
    std::fprintf(stderr,
                 "FAILURE seed %" PRIu64 " perturb %" PRIu64
                 " kind %s minimized %d op(s) repro %s\n",
                 f.seed, f.perturb, f.kind.c_str(), f.minimized_ops,
                 f.repro_path.c_str());
  }

  bool ok = res.failures.empty();
  for (const check::Bug bug :
       do_fault_proof ? campaign.planted_bugs() : std::vector<check::Bug>{}) {
    const check::ProofResult pr = campaign.prove(bug);
    const check::Failure& f = pr.failure;
    if (pr.ok) {
      std::fprintf(stderr,
                   "proof %s: caught at seed %" PRIu64
                   ", schedule %d, minimized to %d op(s), repro %s replays\n",
                   check::to_string(bug), f.seed, f.schedule,
                   f.minimized_ops, f.repro_path.c_str());
    } else {
      std::fprintf(stderr, "proof %s: FAILED: %s\n", check::to_string(bug),
                   pr.error.c_str());
    }
    ok = pr.ok && ok;
  }
  return ok ? 0 : 1;
}
