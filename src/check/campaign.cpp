#include "check/campaign.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "check/fuzz.hpp"
#include "check/kvfuzz.hpp"
#include "check/mwfuzz.hpp"
#include "net/profile.hpp"
#include "progress/progress.hpp"
#include "sim/rng.hpp"

namespace casper::check {

// --- the shared deployment shape -------------------------------------------

const char* to_string(ProgressMode m) {
  switch (m) {
    case ProgressMode::Original: return "original";
    case ProgressMode::Thread: return "thread";
    case ProgressMode::Casper: return "casper";
  }
  return "?";
}

mpi::RunConfig run_config(const Deployment& d, std::uint64_t perturb_seed,
                          int shards) {
  mpi::RunConfig rc;
  rc.machine.profile = net::cray_xc30_regular();
  rc.machine.topo.nodes = d.nodes;
  rc.machine.topo.cores_per_node =
      d.mode == ProgressMode::Casper ? d.users_per_node + d.ghosts
                                     : d.users_per_node;
  rc.seed = d.seed;
  rc.perturb_seed = perturb_seed;
  rc.shards = shards;
  if (shards <= 1 && d.fault_plan.active()) rc.fault = &d.fault_plan;
  if (d.mode == ProgressMode::Thread) {
    rc.progress.kind = progress::Kind::Thread;
    rc.progress.oversubscribed = true;
  }
  return rc;
}

core::Config casper_config(const Deployment& d) {
  core::Config cc;
  cc.ghosts_per_node = d.ghosts;
  cc.binding = d.binding;
  cc.dynamic = d.dynamic;
  return cc;
}

mpi::LayerFactory layer_for(const Deployment& d, const core::Config& cc) {
  return d.mode == ProgressMode::Casper ? core::layer(cc)
                                        : mpi::LayerFactory{};
}

std::map<std::string, std::uint64_t> fault_stats(
    const Deployment& d, const std::map<std::string, std::uint64_t>& all) {
  std::map<std::string, std::uint64_t> out;
  if (!d.fault_plan.active()) return out;
  for (const auto& [key, val] : all) {
    if (key.rfind("fault.", 0) == 0 || key.rfind("recovery.", 0) == 0) {
      out[key] = val;
    }
  }
  return out;
}

void draw_deployment(sim::Rng& rng, Deployment& d, bool draw_mode) {
  d.nodes = 1 + static_cast<int>(rng.next_below(2));
  d.users_per_node = 1 + static_cast<int>(rng.next_below(3));
  if (d.nusers() < 2) d.users_per_node = 2;
  d.ghosts = 1 + static_cast<int>(rng.next_below(2));
  if (draw_mode) {
    switch (rng.next_below(4)) {
      case 0: d.mode = ProgressMode::Original; break;
      case 1: d.mode = ProgressMode::Thread; break;
      default: d.mode = ProgressMode::Casper; break;
    }
  }
  d.binding =
      rng.next_below(2) ? core::Binding::Segment : core::Binding::Rank;
  switch (rng.next_below(4)) {
    case 0: d.dynamic = core::DynamicLb::None; break;
    case 1: d.dynamic = core::DynamicLb::Random; break;
    case 2: d.dynamic = core::DynamicLb::OpCounting; break;
    default: d.dynamic = core::DynamicLb::ByteCounting; break;
  }
}

std::vector<int> ghost_ranks(const Deployment& d) {
  if (d.mode != ProgressMode::Casper) return {};
  net::Topology topo;
  topo.nodes = d.nodes;
  topo.cores_per_node = d.users_per_node + d.ghosts;
  const core::Config cc = casper_config(d);
  std::vector<int> out;
  for (int w = 0; w < topo.nranks(); ++w) {
    if (core::is_ghost_rank(topo, cc, w)) out.push_back(w);
  }
  return out;
}

void add_lossy_network(Deployment& d, std::uint64_t salt,
                       std::uint64_t seed_xor) {
  sim::Rng rng(d.seed, salt);
  fault::FaultPlan& fp = d.fault_plan;
  fp.seed = d.seed ^ seed_xor;
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

std::string to_string(const Deployment& d) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "mode=%s nodes=%d users_per_node=%d ghosts=%d binding=%s "
                "dynamic=%d",
                to_string(d.mode), d.nodes, d.users_per_node, d.ghosts,
                d.binding == core::Binding::Segment ? "segment" : "rank",
                static_cast<int>(d.dynamic));
  return buf;
}

// --- names -----------------------------------------------------------------

namespace {

constexpr Workload kWorkloads[] = {Workload::Rma, Workload::Kv,
                                   Workload::Mwcas};

/// Each planted bug: its workload, the verdict that catches it, and how many
/// seeds the proof may scan.
struct BugInfo {
  Bug bug;
  const char* name;
  Workload workload;
  const char* kind;
  int seeds;
};
constexpr BugInfo kBugs[] = {
    {Bug::None, "none", Workload::Rma, "", 0},
    {Bug::FlipSegmentBinding, "flip-segment-binding", Workload::Rma,
     "oracle-divergence", 500},
    {Bug::KvSkipUnlockFlush, "kv-skip-unlock-flush", Workload::Kv,
     "kv-violation", 200},
    {Bug::MwSkipHelp, "mwcas-skip-help", Workload::Mwcas, "mwcas-violation",
     200},
    {Bug::MwTornInstall, "mwcas-torn-install", Workload::Mwcas,
     "mwcas-violation", 200},
    {Bug::MwStaleStatus, "mwcas-stale-status", Workload::Mwcas,
     "mwcas-violation", 200},
};

const BugInfo& info(Bug b) { return kBugs[static_cast<int>(b)]; }

}  // namespace

const char* to_string(Workload w) {
  switch (w) {
    case Workload::Rma: return "rma";
    case Workload::Kv: return "kv";
    case Workload::Mwcas: return "mwcas";
  }
  return "?";
}

const char* to_string(Bug b) { return info(b).name; }

// --- schedules and minimization --------------------------------------------

std::uint64_t perturb_for(std::uint64_t seed, int s) {
  if (s == 0) return 0;  // schedule 0 is always the classic order
  sim::Rng rng(seed, 0x5eed + static_cast<std::uint64_t>(s));
  const std::uint64_t v = rng.next_u64();
  return v == 0 ? 1 : v;
}

int minimize_prefix(int total, const std::function<bool(int)>& fails) {
  int lo = 1, hi = total;
  while (lo < hi) {
    const int mid = lo + (hi - lo) / 2;
    if (fails(mid)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  // The bisection assumes failing prefixes stay failing when extended; the
  // final check catches the (rare) non-monotone case.
  return fails(lo) ? lo : total;
}

// --- the campaign over one workload adapter W ------------------------------

namespace {

/// Calls `f` with the adapter of `spec.workload`.
template <class F>
auto visit(const CaseSpec& spec, F&& f) {
  switch (spec.workload) {
    case Workload::Rma: return f(RmaWorkload{spec});
    case Workload::Kv: return f(KvWorkload{spec});
    case Workload::Mwcas: break;
  }
  return f(MwWorkload{spec});
}

template <class C>
int size_of(const C& c) {
  return static_cast<int>(c.ops.size());
}

template <class W>
typename W::Case regenerate(const W& w, const Repro& r) {
  typename W::Case c = w.generate(r.seed);
  c.fault_plan = r.plan;
  return c;
}

/// Whether the first `prefix` ops still fail as `r.kind` at r.perturb.
/// Comparing an outcome with itself leaves only the single-run verdicts, so
/// `compare` (a cross-schedule kind) is the one case that runs the reference
/// schedule as well.
template <class W>
bool holds(const W& w, const typename W::Case& c, const Repro& r, int prefix,
           bool compare) {
  const typename W::Outcome out = w.run(c, r.perturb, prefix);
  if (!compare) return w.judge(c, out, out) == r.kind;
  return w.judge(c, w.run(c, r.base_perturb, prefix), out) == r.kind;
}

/// Where a case first failed.
struct Caught {
  int schedule = -1;
  std::string kind;
  bool compare = false;  ///< the verdict needed the reference outcome
};

/// Runs `c` under schedules 0.. until the judge names a failure, counting
/// runs and checked ops into `res`.
template <class W>
Caught first_failure(const W& w, const typename W::Case& c, int schedules,
                     CampaignResult& res) {
  typename W::Outcome ref;
  for (int s = 0; s < schedules; ++s) {
    typename W::Outcome out = w.run(c, perturb_for(c.seed, s), size_of(c));
    ++res.runs;
    res.checked += W::tally(out);
    std::string kind = w.judge(c, s == 0 ? out : ref, out);
    if (!kind.empty()) {
      const bool compare = w.judge(c, out, out) != kind;
      return {s, std::move(kind), compare};
    }
    if (s == 0) ref = std::move(out);
  }
  return {};
}

/// Minimizes a caught failure and writes its repro.
template <class W>
Failure record(const W& w, const typename W::Case& c, const Caught& at,
               const std::string& dir) {
  Repro r;
  r.spec = w.spec;
  r.kind = at.kind;
  r.seed = c.seed;
  r.perturb = perturb_for(c.seed, at.schedule);
  r.base_perturb = perturb_for(c.seed, 0);
  r.plan = c.fault_plan;
  r.prefix = minimize_prefix(size_of(c), [&](int n) {
    return holds(w, c, r, n, at.compare);
  });
  Failure f;
  f.seed = r.seed;
  f.perturb = r.perturb;
  f.schedule = at.schedule;
  f.kind = r.kind;
  f.minimized_ops = r.prefix;
  f.repro_path = write_repro(r, dir);
  return f;
}

void write_plan(std::FILE* f, const fault::FaultPlan& p) {
  if (!p.active()) return;
  std::fprintf(f,
               "netfault seed=%" PRIu64 " drop=%.17g dup=%.17g delay=%.17g "
               "dmin=%" PRIu64 " dmax=%" PRIu64 " ackdrop=%.17g "
               "rto=%" PRIu64 " maxretries=%d hb=%" PRIu64 "\n",
               p.seed, p.net.drop_p, p.net.dup_p, p.net.delay_p,
               p.net.delay_min, p.net.delay_max, p.net.ack_drop_p, p.rto_base,
               p.max_retries, p.heartbeat_period);
  for (const fault::GhostKill& k : p.kills) {
    std::fprintf(f, "kill rank=%d at=%" PRIu64 "\n", k.world_rank, k.at);
  }
  for (const fault::GhostStall& s : p.stalls) {
    std::fprintf(f, "stall rank=%d at=%" PRIu64 " dur=%" PRIu64 "\n",
                 s.world_rank, s.at, s.duration);
  }
}

bool parse_plan_line(const char* line, fault::FaultPlan& p) {
  fault::GhostKill k;
  fault::GhostStall s;
  if (std::sscanf(line,
                  "netfault seed=%" SCNu64 " drop=%lg dup=%lg delay=%lg "
                  "dmin=%" SCNu64 " dmax=%" SCNu64 " ackdrop=%lg rto=%" SCNu64
                  " maxretries=%d hb=%" SCNu64,
                  &p.seed, &p.net.drop_p, &p.net.dup_p, &p.net.delay_p,
                  &p.net.delay_min, &p.net.delay_max, &p.net.ack_drop_p,
                  &p.rto_base, &p.max_retries, &p.heartbeat_period) == 10) {
    return true;
  }
  if (std::sscanf(line, "kill rank=%d at=%" SCNu64, &k.world_rank, &k.at) ==
      2) {
    p.kills.push_back(k);
    return true;
  }
  if (std::sscanf(line, "stall rank=%d at=%" SCNu64 " dur=%" SCNu64,
                  &s.world_rank, &s.at, &s.duration) == 3) {
    p.stalls.push_back(s);
    return true;
  }
  return false;
}

template <class W>
std::string write_as(const W& w, const Repro& r, const std::string& dir) {
  const typename W::Case c = regenerate(w, r);
  const typename W::Outcome out = w.run(c, r.perturb, r.prefix);
  // Named by the planted bug too: two proofs may catch at one seed.
  char name[160];
  std::snprintf(name, sizeof(name),
                "casper_%s_repro_s%" PRIu64 "_p%" PRIu64 "%s%s.txt",
                to_string(r.spec.workload), r.seed, r.perturb,
                r.spec.bug == Bug::None ? "" : "_", to_string(r.spec.bug));
  const std::string path = dir.empty() ? name : dir + "/" + name;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return {};
  std::fprintf(f, "workload %s\n", to_string(r.spec.workload));
  std::fprintf(f, "# replay: fuzz_conformance --replay %s\n", path.c_str());
  std::fprintf(f, "kind %s\n", r.kind.c_str());
  std::fprintf(f, "seed %" PRIu64 "\n", r.seed);
  std::fprintf(f, "perturb %" PRIu64 "\n", r.perturb);
  std::fprintf(f, "base_perturb %" PRIu64 "\n", r.base_perturb);
  std::fprintf(f, "prefix %d\n", r.prefix);
  std::fprintf(f, "reduced %d\n", r.spec.reduced ? 1 : 0);
  if (r.spec.races > 0) std::fprintf(f, "races %d\n", r.spec.races);
  if (r.spec.adaptive) std::fprintf(f, "adaptive 1\n");
  if (r.spec.lockfree) std::fprintf(f, "lockfree 1\n");
  if (r.spec.bug != Bug::None) {
    std::fprintf(f, "bug %s\n", to_string(r.spec.bug));
  }
  write_plan(f, r.plan);
  w.describe(f, c, out, r.prefix);
  std::fclose(f);
  return path;
}

template <class W>
bool replay_as(const W& w, const Repro& r) {
  const typename W::Case c = regenerate(w, r);
  return holds(w, c, r, r.prefix, false) ||
         (r.perturb != r.base_perturb && holds(w, c, r, r.prefix, true));
}

}  // namespace

std::string write_repro(const Repro& r, const std::string& dir) {
  return visit(r.spec, [&](const auto& w) { return write_as(w, r, dir); });
}

bool replay(const Repro& r) {
  return visit(r.spec, [&](const auto& w) { return replay_as(w, r); });
}

bool parse_repro(const std::string& path, Repro& out) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return false;
  char line[512];
  char word[64];
  bool named = false, have_seed = false, have_kind = false, bad = false;
  if (std::fgets(line, sizeof(line), f) != nullptr &&
      std::sscanf(line, "workload %63s", word) == 1) {
    for (const Workload w : kWorkloads) {
      if (std::strcmp(word, to_string(w)) == 0) {
        out.spec.workload = w;
        named = true;
      }
    }
  }
  while (named && std::fgets(line, sizeof(line), f) != nullptr) {
    int v = 0;
    if (std::sscanf(line, "kind %63s", word) == 1) {
      out.kind = word;
      have_kind = true;
    } else if (std::sscanf(line, "seed %" SCNu64, &out.seed) == 1) {
      have_seed = true;
    } else if (std::sscanf(line, "perturb %" SCNu64, &out.perturb) == 1 ||
               std::sscanf(line, "base_perturb %" SCNu64,
                           &out.base_perturb) == 1 ||
               std::sscanf(line, "prefix %d", &out.prefix) == 1 ||
               std::sscanf(line, "races %d", &out.spec.races) == 1) {
    } else if (std::sscanf(line, "reduced %d", &v) == 1) {
      out.spec.reduced = v != 0;
    } else if (std::sscanf(line, "adaptive %d", &v) == 1) {
      out.spec.adaptive = v != 0;
    } else if (std::sscanf(line, "lockfree %d", &v) == 1) {
      out.spec.lockfree = v != 0;
    } else if (std::sscanf(line, "bug %63s", word) == 1) {
      bad = true;
      for (const BugInfo& b : kBugs) {
        if (std::strcmp(word, b.name) == 0) {
          out.spec.bug = b.bug;
          bad = false;
        }
      }
    } else {
      parse_plan_line(line, out.plan);
    }
  }
  std::fclose(f);
  return named && have_seed && have_kind && !bad;
}

// --- the campaign and the proof pipeline -----------------------------------

CampaignResult Campaign::run() const {
  return visit(opt_.spec, [&](const auto& w) {
    CampaignResult res;
    for (int i = 0; i < opt_.cases; ++i) {
      const auto c =
          w.generate(opt_.base_seed + static_cast<std::uint64_t>(i));
      ++res.cases_run;
      const Caught at = first_failure(w, c, opt_.schedules, res);
      if (at.schedule >= 0) {
        res.failures.push_back(record(w, c, at, opt_.repro_dir));
      }
      if (opt_.verbose && (i + 1) % 50 == 0) {
        std::fprintf(stderr,
                     "fuzz %s: %d/%d cases, %d runs, %" PRIu64
                     " checked, %zu failure(s)\n",
                     to_string(opt_.spec.workload), i + 1, opt_.cases,
                     res.runs, res.checked, res.failures.size());
      }
    }
    return res;
  });
}

std::vector<Bug> Campaign::planted_bugs() const {
  std::vector<Bug> out;
  if (opt_.spec.races > 0) return out;
  for (const BugInfo& b : kBugs) {
    if (b.bug != Bug::None && b.workload == opt_.spec.workload) {
      out.push_back(b.bug);
    }
  }
  return out;
}

ProofResult Campaign::prove(Bug bug) const {
  CaseSpec spec;
  spec.workload = info(bug).workload;
  spec.reduced = opt_.spec.reduced;
  spec.bug = bug;
  return visit(spec, [&](const auto& w) {
    ProofResult pr;
    for (int i = 0; i < info(bug).seeds; ++i) {
      const auto c =
          w.generate(opt_.base_seed + static_cast<std::uint64_t>(i));
      if (!w.candidate(c)) continue;
      CampaignResult scratch;
      const Caught at = first_failure(w, c, opt_.schedules, scratch);
      if (at.schedule < 0 || at.kind != info(bug).kind) continue;
      pr.failure = record(w, c, at, opt_.repro_dir);
      Repro back;
      if (pr.failure.repro_path.empty()) {
        pr.error = "could not write the repro file";
      } else if (!parse_repro(pr.failure.repro_path, back)) {
        pr.error = "could not parse " + pr.failure.repro_path;
      } else if (!replay(back)) {
        pr.error = pr.failure.repro_path + " did not reproduce on replay";
      } else {
        pr.ok = true;
      }
      return pr;
    }
    pr.error = "never caught in " + std::to_string(info(bug).seeds) +
               " seeds";
    return pr;
  });
}

}  // namespace casper::check
