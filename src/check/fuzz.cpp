#include "check/fuzz.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>

#include "mpi/datatype.hpp"
#include "mpi/runtime.hpp"
#include "obs/record.hpp"
#include "sim/rng.hpp"

namespace casper::check {

using mpi::AccOp;
using mpi::Datatype;
using mpi::Dt;
using mpi::OpKind;

namespace {

const char* dt_name(Dt d) {
  switch (d) {
    case Dt::Byte: return "byte";
    case Dt::Int: return "int";
    case Dt::Double: return "double";
  }
  return "?";
}

const char* kind_name(OpKind k) {
  switch (k) {
    case OpKind::Put: return "put";
    case OpKind::Get: return "get";
    case OpKind::Acc: return "acc";
    case OpKind::GetAcc: return "getacc";
    case OpKind::Fao: return "fao";
    case OpKind::Cas: return "cas";
    default: return "?";
  }
}

const char* aop_name(AccOp a) {
  switch (a) {
    case AccOp::Replace: return "replace";
    case AccOp::Sum: return "sum";
    case AccOp::Min: return "min";
    case AccOp::Max: return "max";
    case AccOp::NoOp: return "noop";
  }
  return "?";
}

std::uint64_t fnv1a(const void* p, std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= b[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Fill `n` basic elements of type `base` at `dst` with val, val+1, ...
void fill_elems(std::byte* dst, int n, Dt base, std::int64_t val) {
  for (int j = 0; j < n; ++j) {
    const std::int64_t v = val + j;
    switch (base) {
      case Dt::Byte: {
        dst[j] = static_cast<std::byte>(v & 0xff);
        break;
      }
      case Dt::Int: {
        const std::int32_t x = static_cast<std::int32_t>(v);
        std::memcpy(dst + 4 * j, &x, 4);
        break;
      }
      case Dt::Double: {
        const double x = static_cast<double>(v);
        std::memcpy(dst + 8 * j, &x, 8);
        break;
      }
    }
  }
}

/// Per-origin PUT datatype: fixed per origin so repeated puts to the same
/// slot bytes always use the same element layout.
Dt put_dt_of(int origin) {
  switch (origin % 3) {
    case 0: return Dt::Double;
    case 1: return Dt::Int;
    default: return Dt::Byte;
  }
}

/// Issues one op. Origin and result buffers are parked in `keep`: MPI origin
/// buffers must stay valid until the epoch's completing synchronization (the
/// runtime unpacks GET/GET_ACC/FAO/CAS results into them at completion time).
void issue_one(mpi::Env& env, const OpRec& op, const mpi::Win& win,
               std::vector<std::vector<std::byte>>& keep) {
  const std::size_t db = mpi::data_bytes(op.count, op.tdt);
  const int oc = op.count * op.tdt.blocklen;
  const Datatype odt = mpi::contig(op.tdt.base);
  keep.emplace_back(db);
  std::byte* buf = keep.back().data();
  keep.emplace_back(db);
  std::byte* res = keep.back().data();
  fill_elems(buf, oc, op.tdt.base, op.val);
  if (op.local) {
    // Racy mode: a direct load/store on the origin's own exposed segment,
    // observed by the race analyzer via the Env local-access hooks.
    if (op.kind == OpKind::Put) {
      env.local_store(buf, op.disp, db, win);
    } else {
      env.local_load(res, op.disp, db, win);
    }
    return;
  }
  switch (op.kind) {
    case OpKind::Put:
      env.put(buf, oc, odt, op.target, op.disp, op.count, op.tdt, win);
      break;
    case OpKind::Get:
      env.get(res, oc, odt, op.target, op.disp, op.count, op.tdt, win);
      break;
    case OpKind::Acc:
      env.accumulate(buf, oc, odt, op.target, op.disp, op.count, op.tdt,
                     op.aop, win);
      break;
    case OpKind::GetAcc:
      env.get_accumulate(buf, oc, odt, res, oc, odt, op.target, op.disp,
                         op.count, op.tdt, op.aop, win);
      break;
    case OpKind::Fao:
      env.fetch_and_op(buf, res, op.tdt.base, op.target, op.disp, op.aop,
                       win);
      break;
    case OpKind::Cas: {
      const std::size_t es = op.tdt.elem_size();
      keep.emplace_back(2 * es);
      std::byte* cd = keep.back().data();
      fill_elems(cd, 1, op.tdt.base, op.val & 0xff);
      fill_elems(cd + es, 1, op.tdt.base, (op.val >> 8) & 0xff);
      env.compare_and_swap(cd, cd + es, res, op.tdt.base, op.target, op.disp,
                           win);
      break;
    }
    default:
      break;
  }
}

void fuzz_body(mpi::Env& env, const FuzzCase& fc, RunOutcome& out) {
  mpi::Comm w = env.world();
  const int me = env.rank(w);
  const int p = env.size(w);
  mpi::Info info;
  if (fc.hint_exact) info.set(core::kEpochsUsedKey, to_string(fc.epoch));
  void* base = nullptr;
  mpi::Win win = env.win_allocate(fc.seg_bytes(), 1, info, w, &base);

  std::vector<int> everyone(static_cast<std::size_t>(p));
  std::iota(everyone.begin(), everyone.end(), 0);
  mpi::Group g(everyone);

  // Origin/result scratch buffers. MPI origin buffers must stay valid until
  // the epoch's completing synchronization, and under the fence style a
  // middle round is only completed by the NEXT round's fence call — so the
  // buffers live for the whole body, released after the final sync.
  std::vector<std::vector<std::byte>> keep;

  for (int r = 0; r < fc.rounds; ++r) {
    std::vector<const OpRec*> mine;
    for (const auto& op : fc.ops) {
      if (op.round == r && op.origin == me) mine.push_back(&op);
    }

    switch (fc.epoch) {
      case EpochStyle::Fence:
        // First fence opens with NOPRECEDE; middle fences close the previous
        // round and open the next in one call.
        env.win_fence(r == 0 ? mpi::kModeNoPrecede : 0u, win);
        break;
      case EpochStyle::Pscw: {
        const unsigned a = fc.pscw_nocheck ? mpi::kModeNoCheck : 0u;
        env.win_post(g, a, win);
        // NOCHECK is only legal when the post→start ordering is guaranteed
        // by other means; a barrier provides it.
        if (fc.pscw_nocheck) env.barrier(w);
        env.win_start(g, a, win);
        break;
      }
      case EpochStyle::Lock:
        for (int t = 0; t < p; ++t) {
          env.win_lock(mpi::LockType::Shared, t, 0, win);
        }
        break;
      case EpochStyle::LockAll:
        env.win_lock_all(0, win);
        break;
    }

    const std::size_t half = mine.size() / 2;
    for (std::size_t i = 0; i < mine.size(); ++i) {
      if (fc.mid_flush && i == half && i != 0) {
        // Completes everything issued so far and (under a lock) opens the
        // static-binding-free interval dynamic binding needs (III.B.3).
        env.win_flush_all(win);
      }
      issue_one(env, *mine[i], win, keep);
    }

    switch (fc.epoch) {
      case EpochStyle::Fence:
        if (r == fc.rounds - 1) env.win_fence(mpi::kModeNoSucceed, win);
        break;
      case EpochStyle::Pscw:
        env.win_complete(win);
        env.win_wait(win);
        break;
      case EpochStyle::Lock:
        for (int t = 0; t < p; ++t) env.win_unlock(t, win);
        break;
      case EpochStyle::LockAll:
        env.win_unlock_all(win);
        break;
    }
  }

  env.barrier(w);
  out.content_hash[static_cast<std::size_t>(me)] =
      fnv1a(base, fc.seg_bytes());
  out.world_of[static_cast<std::size_t>(me)] = env.world_rank();
  env.win_free(win);
}

}  // namespace

FuzzCase make_case(std::uint64_t seed, bool reduced) {
  sim::Rng rng(seed, 0xfa22);
  FuzzCase fc;
  fc.seed = seed;
  draw_deployment(rng, fc, /*draw_mode=*/false);
  fc.epoch = static_cast<EpochStyle>(rng.next_below(4));
  fc.rounds = 1 + static_cast<int>(rng.next_below(2));
  fc.mid_flush = (fc.epoch == EpochStyle::Lock ||
                  fc.epoch == EpochStyle::LockAll) &&
                 rng.next_below(2) != 0;
  fc.pscw_nocheck = fc.epoch == EpochStyle::Pscw && rng.next_below(4) == 0;
  fc.hint_exact = rng.next_below(2) != 0;
  fc.acc_dt = rng.next_below(2) ? Dt::Double : Dt::Int;
  switch (rng.next_below(3)) {
    case 0: fc.acc_op = AccOp::Sum; break;
    case 1: fc.acc_op = AccOp::Min; break;
    default: fc.acc_op = AccOp::Max; break;
  }
  fc.order_sensitive = rng.next_below(4) == 0;
  fc.slot_bytes = reduced ? 64 : 128;
  // Separate stream: toggling the controller into the config fuzz space must
  // not shift the 0xfa22 draws that shape the established seed corpus.
  fc.adaptive = sim::Rng(seed, 0xada7).next_below(4) == 0;

  const int nu = fc.nusers();
  const int per_origin =
      (reduced ? 2 : 4) + static_cast<int>(rng.next_below(reduced ? 4 : 6));
  const std::size_t acc_base =
      static_cast<std::size_t>(nu) * fc.slot_bytes;
  const std::size_t ro_base = acc_base + fc.slot_bytes;
  const std::size_t acc_es = dt_size(fc.acc_dt);
  const std::size_t acc_cap = fc.slot_bytes / acc_es;

  // Place an accumulate-class op into the shared acc region; returns it
  // fully resolved except kind (caller picks Acc / GetAcc / Fao / Cas).
  auto acc_shape = [&](OpRec& op) {
    bool strided = rng.next_below(4) == 0;
    int count = 1 + static_cast<int>(rng.next_below(4));
    std::size_t span_e =
        strided ? 2 * static_cast<std::size_t>(count) - 1
                : static_cast<std::size_t>(count);
    if (span_e > acc_cap) {
      strided = false;
      count = 1;
      span_e = 1;
    }
    const std::size_t idx = rng.next_below(acc_cap - span_e + 1);
    op.tdt = strided ? mpi::vector_of(fc.acc_dt, 1, 2)
                     : mpi::contig(fc.acc_dt);
    op.count = count;
    op.disp = acc_base + idx * acc_es;
    op.aop = fc.acc_op;
    switch (fc.acc_op) {
      case AccOp::Sum:
        op.val = 1 + static_cast<std::int64_t>(rng.next_below(4));
        break;
      case AccOp::Min:
        op.val = -1 - static_cast<std::int64_t>(rng.next_below(100));
        break;
      default:
        op.val = 1 + static_cast<std::int64_t>(rng.next_below(100));
        break;
    }
  };

  for (int r = 0; r < fc.rounds; ++r) {
    // Per-(origin, target) bump cursor keeps one round's puts from one
    // origin byte-disjoint (conflicting same-epoch puts are an MPI usage
    // error and would be order-sensitive anyway). Rounds are separated by a
    // completing sync, so the cursor resets.
    std::vector<std::size_t> cursor(
        static_cast<std::size_t>(nu) * static_cast<std::size_t>(nu), 0);
    for (int o = 0; o < nu; ++o) {
      for (int i = 0; i < per_origin; ++i) {
        OpRec op;
        op.origin = o;
        op.round = r;
        op.target = static_cast<int>(rng.next_below(
            static_cast<std::uint64_t>(nu)));
        std::uint64_t roll = rng.next_below(100);
        if (fc.order_sensitive && rng.next_below(5) == 0) {
          // Order-sensitive spice: CAS or ACC-Replace on the acc region.
          acc_shape(op);
          if (rng.next_below(2) != 0) {
            op.kind = OpKind::Cas;
            op.count = 1;
            op.tdt = mpi::contig(fc.acc_dt);
            op.disp = acc_base;
            op.val = static_cast<std::int64_t>(rng.next_below(1 << 16));
          } else {
            op.kind = OpKind::Acc;
            op.aop = AccOp::Replace;
            op.val = static_cast<std::int64_t>(rng.next_below(256));
          }
          fc.ops.push_back(op);
          continue;
        }
        if (roll < 40) {
          // PUT into my exclusive slot on the target.
          const Dt pdt = put_dt_of(o);
          const std::size_t es = dt_size(pdt);
          const bool strided = rng.next_below(4) == 0;
          const int count = 1 + static_cast<int>(rng.next_below(4));
          const Datatype tdt =
              strided ? mpi::vector_of(pdt, 1, 2) : mpi::contig(pdt);
          const std::size_t span = mpi::span_bytes(count, tdt);
          const std::size_t span8 = (span + 7) & ~std::size_t{7};
          std::size_t& cur = cursor[static_cast<std::size_t>(o) *
                                        static_cast<std::size_t>(nu) +
                                    static_cast<std::size_t>(op.target)];
          if (cur + span8 <= fc.slot_bytes) {
            op.kind = OpKind::Put;
            op.tdt = tdt;
            op.count = count;
            op.disp = static_cast<std::size_t>(o) * fc.slot_bytes + cur;
            op.val = 16 * (o + 1) +
                     static_cast<std::int64_t>(rng.next_below(16));
            cur += span8;
            (void)es;
            fc.ops.push_back(op);
            continue;
          }
          roll = 50 + rng.next_below(50);  // slot full: fall through
        }
        if (roll < 55) {
          // GET from the never-written read-only slot.
          const bool strided = rng.next_below(4) == 0;
          const int count = 1 + static_cast<int>(rng.next_below(4));
          const Datatype tdt = strided ? mpi::vector_of(Dt::Double, 1, 2)
                                       : mpi::contig(Dt::Double);
          const std::size_t cap = fc.slot_bytes / 8;
          const std::size_t span_e =
              strided ? 2 * static_cast<std::size_t>(count) - 1
                      : static_cast<std::size_t>(count);
          const std::size_t idx =
              span_e >= cap ? 0 : rng.next_below(cap - span_e + 1);
          op.kind = OpKind::Get;
          op.tdt = tdt;
          op.count = span_e >= cap ? 1 : count;
          op.disp = ro_base + idx * 8;
          fc.ops.push_back(op);
          continue;
        }
        if (roll < 80) {
          acc_shape(op);
          op.kind = OpKind::Acc;
        } else if (roll < 90) {
          acc_shape(op);
          op.kind = OpKind::GetAcc;
        } else {
          acc_shape(op);
          op.kind = OpKind::Fao;
          op.count = 1;
          op.tdt = mpi::contig(fc.acc_dt);
        }
        fc.ops.push_back(op);
      }
    }
  }
  return fc;
}

FuzzCase make_racy_case(std::uint64_t seed, bool reduced, int races) {
  FuzzCase fc = make_case(seed, reduced);
  // Racing writes make final contents schedule-dependent; skip the
  // cross-schedule content comparison, keep everything else.
  fc.order_sensitive = true;
  sim::Rng rng(seed, 0xace5);
  const int nu = fc.nusers();
  for (int i = 0; i < races; ++i) {
    FuzzCase::PlantedRace pr;
    pr.target = static_cast<int>(rng.next_below(
        static_cast<std::uint64_t>(nu)));
    const int round = static_cast<int>(rng.next_below(
        static_cast<std::uint64_t>(fc.rounds)));
    // Variant 2 (local-store vs PUT) stores from the target rank itself, so
    // the remote writer must be someone else.
    const int variant = static_cast<int>(rng.next_below(3));
    int o1 = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(nu)));
    if (variant == 2 && o1 == pr.target) o1 = (o1 + 1) % nu;
    int o2 = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(nu - 1)));
    if (o2 >= o1) ++o2;
    // 8-aligned overlap range inside o1's put slot on the target. It may
    // also overlap o1's organic puts — extra true conflicts, all carrying
    // the same origin pair, so coverage checks are unaffected.
    const std::size_t cap8 = fc.slot_bytes / 8;
    const std::size_t len8 = 1 + rng.next_below(std::min<std::size_t>(cap8, 3));
    const std::size_t off8 = rng.next_below(cap8 - len8 + 1);
    pr.lo = static_cast<std::size_t>(o1) * fc.slot_bytes + off8 * 8;
    pr.hi = pr.lo + len8 * 8;

    OpRec a;
    a.round = round;
    a.target = pr.target;
    a.disp = pr.lo;
    a.count = static_cast<int>(pr.hi - pr.lo);
    a.tdt = mpi::contig(Dt::Byte);
    a.val = 0x40 + i;
    OpRec b = a;
    b.val = 0x80 + i;
    switch (variant) {
      case 0:  // PUT vs PUT
        a.kind = OpKind::Put;
        a.origin = o1;
        b.kind = OpKind::Put;
        b.origin = o2;
        break;
      case 1:  // PUT vs GET
        a.kind = OpKind::Put;
        a.origin = o1;
        b.kind = OpKind::Get;
        b.origin = o2;
        break;
      default:  // local store on the exposed segment vs a remote PUT
        a.kind = OpKind::Put;
        a.origin = pr.target;
        a.local = true;
        b.kind = OpKind::Put;
        b.origin = o1;
        break;
    }
    pr.origin_a = a.origin;
    pr.origin_b = b.origin;
    pr.op_a = static_cast<int>(fc.ops.size());
    fc.ops.push_back(a);
    pr.op_b = static_cast<int>(fc.ops.size());
    fc.ops.push_back(b);
    fc.planted.push_back(pr);
  }
  return fc;
}

bool planted_flagged(const RunOutcome& out, const FuzzCase::PlantedRace& pr) {
  const auto world = [&](int user_rank) {
    const auto i = static_cast<std::size_t>(user_rank);
    return i < out.world_of.size() ? out.world_of[i] : user_rank;
  };
  const int wa = std::min(world(pr.origin_a), world(pr.origin_b));
  const int wb = std::max(world(pr.origin_a), world(pr.origin_b));
  for (const RaceAnalyzer::Group& g : out.race_groups) {
    if (g.target != pr.target || g.origin_a != wa || g.origin_b != wb)
      continue;
    for (const auto& [lo, hi] : g.ranges) {
      if (lo < pr.hi && hi > pr.lo) return true;
    }
  }
  return false;
}

void add_net_faults(FuzzCase& fc) {
  sim::Rng rng(fc.seed, 0xfa0175);
  fault::FaultPlan& fp = fc.fault_plan;
  fp.seed = fc.seed ^ 0x9e3779b97f4a7c15ULL;
  fault::NetFaults& n = fp.net;
  // Always at least one fault class; higher rolls stack several so the
  // retry/dedup/reorder machinery gets exercised together.
  const std::uint64_t mix = rng.next_below(8);
  if (mix == 0 || (mix & 1) != 0) {
    n.drop_p = 0.02 + 0.18 * rng.next_double();
  }
  if (mix == 1 || (mix & 2) != 0) {
    n.dup_p = 0.02 + 0.18 * rng.next_double();
  }
  if (mix == 2 || (mix & 4) != 0) {
    // Delay doubles as reorder: a jitter window wider than the inter-op
    // issue gap makes later sends overtake earlier ones.
    n.delay_p = 0.05 + 0.35 * rng.next_double();
    n.delay_min = sim::us(1);
    n.delay_max = sim::us(5 + rng.next_below(60));
  }
  if (rng.next_below(3) == 0) {
    n.ack_drop_p = 0.02 + 0.13 * rng.next_double();
  }
}

RunOutcome run_case(const FuzzCase& fc, std::uint64_t perturb_seed) {
  mpi::RunConfig rc = run_config(fc, perturb_seed);
  core::Config cc = casper_config(fc);
  cc.adaptive.enabled = fc.adaptive;
  cc.fault.flip_segment_binding = fc.bug == Bug::FlipSegmentBinding;

  // CASPER_TRACE=<anything but 0/off> attaches a recorder so repro files can
  // embed the tail of the virtual-time trace (see scripts/check.sh gate 4).
  const char* trace_env = std::getenv("CASPER_TRACE");
  const bool want_trace = obs::kTraceCompiled && trace_env != nullptr &&
                          std::strcmp(trace_env, "0") != 0 &&
                          std::strcmp(trace_env, "off") != 0;
  obs::Recorder rec;
  if (want_trace) rc.recorder = &rec;

  RunOutcome out;
  out.content_hash.assign(static_cast<std::size_t>(fc.nusers()), 0);
  out.world_of.assign(static_cast<std::size_t>(fc.nusers()), -1);
  out.ops = static_cast<int>(fc.ops.size());
  ShadowOracle oracle;
  RaceAnalyzer race;
  if (want_trace) race.set_recorder(&rec);
  mpi::Runtime rt(
      rc, [&fc, &out](mpi::Env& env) { fuzz_body(env, fc, out); },
      layer_for(fc, cc));
  rt.add_observer(&oracle);
  rt.add_observer(&race);
  rt.engine().set_schedule_trace(&out.trace);
  rt.run();
  out.atomicity_violations = rt.stats().get("atomicity_violations");
  out.divergences = oracle.divergences();
  out.commits = oracle.commits_seen();
  out.race_conflict_events = race.conflict_events();
  out.race_conflict_bytes = race.conflict_bytes();
  out.race_groups = race.groups();
  for (const RaceConflict& c : race.conflicts()) {
    out.race_diags.push_back(c.diag);
    if (out.race_diags.size() >= 8) break;
  }
  out.fault_stats = fault_stats(fc, rt.stats().all());
  if (want_trace) out.trace_tail = rec.trace().tail_text(32);
  return out;
}

FuzzCase RmaWorkload::generate(std::uint64_t seed) const {
  FuzzCase fc = spec.races > 0 ? make_racy_case(seed, spec.reduced, spec.races)
                               : make_case(seed, spec.reduced);
  if (spec.adaptive) fc.adaptive = true;
  if (spec.net_faults) add_net_faults(fc);
  fc.bug = spec.bug;
  return fc;
}

RunOutcome RmaWorkload::run(const FuzzCase& fc, std::uint64_t perturb,
                            int prefix) const {
  if (prefix >= static_cast<int>(fc.ops.size())) return run_case(fc, perturb);
  FuzzCase t = fc;
  t.ops.resize(static_cast<std::size_t>(prefix));
  return run_case(t, perturb);
}

std::string RmaWorkload::judge(const FuzzCase& fc, const RunOutcome& ref,
                               const RunOutcome& out) const {
  if (!fc.planted.empty()) {
    // Racing writes legitimately diverge the oracle and the contents; every
    // planted pair the run issued must be flagged in every schedule.
    for (const FuzzCase::PlantedRace& pr : fc.planted) {
      if (pr.op_a < out.ops && pr.op_b < out.ops && !planted_flagged(out, pr))
        return "race-miss";
    }
    return "";
  }
  if (!out.oracle_clean()) return "oracle-divergence";
  // The generator promises every clean case race-free.
  if (!out.races_clean()) return "race-conflict";
  if (!fc.order_sensitive && out.content_hash != ref.content_hash)
    return "schedule-divergence";
  return "";
}

bool RmaWorkload::candidate(const FuzzCase& fc) const {
  return fc.bug != Bug::FlipSegmentBinding ||
         (fc.binding == core::Binding::Segment && fc.ghosts >= 2 &&
          !fc.adaptive);
}

void RmaWorkload::describe(std::FILE* f, const FuzzCase& fc,
                           const RunOutcome& out, int prefix) const {
  std::fprintf(
      f,
      "case %s epoch=%s rounds=%d mid_flush=%d pscw_nocheck=%d "
      "hint_exact=%d acc_dt=%s acc_op=%s order_sensitive=%d slot_bytes=%zu "
      "adaptive=%d\n",
      to_string(fc).c_str(), to_string(fc.epoch), fc.rounds,
      fc.mid_flush ? 1 : 0, fc.pscw_nocheck ? 1 : 0, fc.hint_exact ? 1 : 0,
      dt_name(fc.acc_dt), aop_name(fc.acc_op), fc.order_sensitive ? 1 : 0,
      fc.slot_bytes, fc.adaptive ? 1 : 0);
  const int nshow = std::min<int>(prefix, static_cast<int>(fc.ops.size()));
  for (int i = 0; i < nshow; ++i) {
    const OpRec& op = fc.ops[static_cast<std::size_t>(i)];
    std::fprintf(f,
                 "op %d kind=%s aop=%s origin=%d target=%d round=%d "
                 "disp=%zu count=%d dt=%s blocklen=%d stride=%d val=%lld "
                 "local=%d\n",
                 i, kind_name(op.kind), aop_name(op.aop), op.origin,
                 op.target, op.round, op.disp, op.count, dt_name(op.tdt.base),
                 op.tdt.blocklen, op.tdt.stride,
                 static_cast<long long>(op.val), op.local ? 1 : 0);
  }
  for (const FuzzCase::PlantedRace& pr : fc.planted) {
    std::fprintf(f,
                 "planted origin_a=%d origin_b=%d target=%d lo=%zu hi=%zu "
                 "op_a=%d op_b=%d\n",
                 pr.origin_a, pr.origin_b, pr.target, pr.lo, pr.hi, pr.op_a,
                 pr.op_b);
  }
  for (const std::string& d : out.race_diags) {
    std::fprintf(f, "race %s\n", d.c_str());
  }
  for (const Divergence& d : out.divergences) {
    std::fprintf(f,
                 "divergence t=%.3fus where=\"%s\" win=%d span_off=%zu "
                 "real=0x%02x shadow=0x%02x nbytes=%zu\n",
                 sim::to_us(d.t), d.where.c_str(), d.win_id, d.span_off,
                 d.real, d.shadow, d.nbytes);
  }
  std::fprintf(f, "violations %" PRIu64 "\n", out.atomicity_violations);
  // Schedule-trace prefix: enough to show WHERE the failing interleaving
  // departs from the classic one.
  const std::size_t ntr = std::min<std::size_t>(out.trace.size(), 64);
  std::fprintf(f, "sched");
  for (std::size_t i = 0; i < ntr; ++i) {
    std::fprintf(f, " %.3f:%d", sim::to_us(out.trace[i].t),
                 out.trace[i].rank);
  }
  std::fprintf(f, "\n");
  // Obs-trace tail (present when the run had CASPER_TRACE set): the last
  // virtual-time events before the failure, in golden-trace text form.
  for (const std::string& line : out.trace_tail) {
    std::fprintf(f, "trace %s\n", line.c_str());
  }
}

}  // namespace casper::check
