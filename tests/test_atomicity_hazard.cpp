// White-box demonstration of the hazard Casper's static binding prevents
// (paper Section III.B): if operations targeting the same memory are
// processed concurrently by *different* entities without a common lock
// domain, MPI's accumulate atomicity breaks — updates are lost — and the
// runtime's checker reports it.
//
// We construct the hazard directly in minimpi by exposing the SAME buffer
// through two windows with different target ranks (exactly what Casper's
// overlapping ghost windows do), then driving concurrent accumulates through
// both paths with no binding discipline.
//
// Determinism: instead of trusting one lucky default interleaving, the tests
// sweep the engine's schedule-perturbation seed (RunConfig::perturb_seed).
// The hazard must be DETECTED under every legal schedule (the checker is
// interval-based, not luck-based), each run must be bit-reproducible for its
// seed, and the bound control must stay exact under all of them.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "mpi/inflight.hpp"
#include "mpi/runtime.hpp"
#include "net/profile.hpp"
#include "sim/rng.hpp"

namespace {

using namespace casper;
using mpi::AccOp;
using mpi::Comm;
using mpi::Dt;
using mpi::Info;
using mpi::InflightList;
using mpi::InflightOp;
using mpi::LockType;
using mpi::RunConfig;
using mpi::Win;

struct HazardResult {
  double final_value = -1.0;
  std::uint64_t violations = 0;

  bool operator==(const HazardResult&) const = default;
};

/// Ranks 0,1 act as "ghosts" both exposing rank 0's buffer; ranks 2,3 are
/// origins. With `bind_same_entity` both origins accumulate through ghost 0
/// (the binding discipline); otherwise each uses a different ghost and the
/// unsynchronized RMW interleaving loses updates.
HazardResult run_hazard(bool bind_same_entity, std::uint64_t perturb_seed) {
  RunConfig rc;
  rc.machine.profile = net::cray_xc30_regular();
  rc.machine.topo.nodes = 2;
  rc.machine.topo.cores_per_node = 2;
  rc.perturb_seed = perturb_seed;
  HazardResult res;
  mpi::exec(rc, [&](mpi::Env& env) {
    Comm w = env.world();
    static std::vector<double> shared_buf;  // rank 0's exposed memory
    if (env.rank(w) == 0) shared_buf.assign(1, 0.0);
    env.barrier(w);

    // Both "ghosts" (ranks 0 and 1, same node) expose the same buffer.
    const bool ghostish = env.rank(w) < 2;
    void* mybase = ghostish ? shared_buf.data() : nullptr;
    const std::size_t mysize = ghostish ? sizeof(double) : 0;
    Win win = env.win_create(mybase, mysize, sizeof(double), Info{}, w);

    env.barrier(w);
    if (env.rank(w) >= 2) {
      const int my_ghost = bind_same_entity ? 0 : env.rank(w) - 2;
      env.win_lock(LockType::Shared, my_ghost, 0, win);
      double one = 1.0;
      for (int i = 0; i < 50; ++i) {
        env.accumulate(&one, 1, my_ghost, 0, AccOp::Sum, win);
      }
      env.win_unlock(my_ghost, win);
    } else {
      // The ghosts make progress (they are in the MPI runtime).
      env.barrier(env.world());
    }
    if (env.rank(w) >= 2) env.barrier(env.world());
    env.barrier(w);
    if (env.rank(w) == 0) {
      res.final_value = shared_buf[0];
      res.violations = env.runtime().stats().get("atomicity_violations");
    }
    env.win_free(win);
  });
  return res;
}

constexpr std::uint64_t kPerturbSeeds[] = {0, 0x1d, 0xbeef, 0xf00dcafe,
                                           0x123456789abcdefULL};

TEST(AtomicityHazard, UnboundConcurrentAccumulatesDetectedUnderAllSchedules) {
  for (const std::uint64_t p : kPerturbSeeds) {
    const HazardResult r = run_hazard(/*bind_same_entity=*/false, p);
    // 100 increments were issued; the interval checker must flag the
    // overlapping unsynchronized RMWs whatever the tie-break order, and
    // lost updates can never push the result past the exact sum.
    EXPECT_GT(r.violations, 0u) << "perturb " << p;
    EXPECT_LE(r.final_value, 100.0) << "perturb " << p;
    // Same program + same schedule seed = bit-identical outcome.
    EXPECT_EQ(run_hazard(false, p), r) << "perturb " << p;
  }
}

TEST(AtomicityHazard, LostUpdatesManifestUnderSomeSchedule) {
  // The value loss itself IS schedule-dependent — that is the point of the
  // hazard. Sweeping seeds must surface at least one interleaving that
  // actually drops updates (deterministically reproducible by its seed).
  bool lost_somewhere = false;
  for (const std::uint64_t p : kPerturbSeeds) {
    if (run_hazard(false, p).final_value < 100.0) {
      lost_somewhere = true;
      break;
    }
  }
  EXPECT_TRUE(lost_somewhere);
}

TEST(AtomicityHazard, SameProcessingEntityStaysExactUnderAllSchedules) {
  // Control: with the binding discipline (everyone through ghost 0), the
  // result is exact and the checker silent under every schedule.
  for (const std::uint64_t p : kPerturbSeeds) {
    const HazardResult r = run_hazard(/*bind_same_entity=*/true, p);
    EXPECT_EQ(r.final_value, 100.0) << "perturb " << p;
    EXPECT_EQ(r.violations, 0u) << "perturb " << p;
  }
}

// ------------------------------------------------- the in-flight detector --
//
// The runtime's detector (mpi::InflightList, one per node) must count exactly
// the conflicting pairs an all-pairs scan over every access finds, whatever
// order services open and land in and however often it prunes.

/// An access of the stream below, on node `node`.
struct Access {
  int node = 0;
  InflightOp op;
};

/// All-pairs reference: different entities, at least one write, half-open
/// time spans and byte ranges both overlap. Nodes own disjoint addresses, so
/// the scan needs no node key.
std::uint64_t all_pairs(const std::vector<Access>& accs) {
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < accs.size(); ++i) {
    for (std::size_t j = i + 1; j < accs.size(); ++j) {
      const InflightOp& a = accs[i].op;
      const InflightOp& b = accs[j].op;
      if (a.entity == b.entity || !(a.is_write || b.is_write)) continue;
      if (a.t0 < b.t1 && b.t0 < a.t1 && a.lo < b.hi && b.lo < a.hi) ++n;
    }
  }
  return n;
}

/// Drives one list per node the way the runtime does: every two-phase access
/// opens at its t0 and lands (record, then close) at its t1; an instant
/// access only lands. Calls run in time order, and `tie_seed` shuffles the
/// order of calls at one instant. Returns the summed detector counts.
std::uint64_t replay(const std::vector<Access>& accs, int nodes,
                     std::size_t min_prune, std::uint64_t tie_seed,
                     std::size_t* max_size = nullptr) {
  struct Call {
    sim::Time t = 0;
    std::uint64_t tie = 0;
    bool land = false;
    std::size_t idx = 0;
  };
  sim::Rng rng(tie_seed);
  std::vector<Call> calls;
  for (std::size_t i = 0; i < accs.size(); ++i) {
    const InflightOp& a = accs[i].op;
    if (a.t0 < a.t1) calls.push_back({a.t0, rng.next_u64(), false, i});
    calls.push_back({a.t1, rng.next_u64(), true, i});
  }
  std::sort(calls.begin(), calls.end(), [](const Call& x, const Call& y) {
    return x.t != y.t ? x.t < y.t : x.tie < y.tie;
  });
  std::vector<InflightList> lists(static_cast<std::size_t>(nodes),
                                  InflightList(min_prune));
  std::uint64_t n = 0;
  for (const Call& c : calls) {
    const Access& a = accs[c.idx];
    InflightList& l = lists[static_cast<std::size_t>(a.node)];
    if (!c.land) {
      l.open(a.op.t0);
      continue;
    }
    n += l.record(a.op);
    if (a.op.t0 < a.op.t1) l.close(a.op.t0);
    if (max_size != nullptr) *max_size = std::max(*max_size, l.size());
  }
  return n;
}

Access access(int node, int entity, std::uintptr_t lo, std::uintptr_t hi,
              sim::Time t0, sim::Time t1, bool is_write = true) {
  const std::uintptr_t base = static_cast<std::uintptr_t>(node) << 20;
  return Access{node, InflightOp{base + lo, base + hi, t0, t1, entity,
                                 is_write}};
}

// A long service that read at t=10 lands after a short one on another node
// that read at t=20; the short one's landing must not drop the [5,15)
// access the long one overlaps.
TEST(InflightList, LongServiceLandingAfterShortOneOnAnotherNodeCountsOnce) {
  const std::vector<Access> accs = {access(0, 1, 0, 8, 5, 15),
                                    access(1, 2, 0, 8, 20, 30),
                                    access(0, 3, 0, 8, 10, 50)};
  ASSERT_EQ(all_pairs(accs), 1u);
  for (const std::size_t min_prune : {1u, 16u}) {
    EXPECT_EQ(replay(accs, 2, min_prune, 0), 1u) << "min_prune " << min_prune;
  }
}

// The same reordering within one node: the second access's bytes are
// disjoint, and its landing must not drop what the still-open long service
// can meet.
TEST(InflightList, LongServiceLandingAfterShortOneOnSameNodeCountsOnce) {
  const std::vector<Access> accs = {access(0, 1, 0, 8, 5, 15),
                                    access(0, 2, 64, 72, 20, 30),
                                    access(0, 3, 0, 8, 10, 50)};
  ASSERT_EQ(all_pairs(accs), 1u);
  for (const std::size_t min_prune : {1u, 16u}) {
    EXPECT_EQ(replay(accs, 1, min_prune, 0), 1u) << "min_prune " << min_prune;
  }
}

// Zero-width accesses conflict only strictly inside another span; spans
// that merely touch, same-entity pairs and read-read pairs never conflict.
TEST(InflightList, BoundariesSameEntityAndReadsDoNotConflict) {
  const std::vector<Access> accs = {
      access(0, 1, 0, 8, 10, 20),          // A
      access(0, 2, 0, 8, 10, 10),          // instant at A's start: none
      access(0, 3, 0, 8, 15, 15),          // instant inside A: 1
      access(0, 4, 0, 8, 20, 20),          // instant at A's end: none
      access(0, 5, 0, 8, 20, 30),          // B, touching A: none
      access(0, 1, 0, 8, 21, 28),          // A's entity, inside B: 1
      access(0, 6, 0, 8, 21, 22, false),   // read inside the two: 2
      access(0, 7, 0, 8, 21, 23, false)};  // same, read-read with 6: 2
  ASSERT_EQ(all_pairs(accs), 6u);
  for (const std::size_t min_prune : {1u, 16u}) {
    for (std::uint64_t tie = 0; tie < 8; ++tie) {
      EXPECT_EQ(replay(accs, 1, min_prune, tie), 6u)
          << "min_prune " << min_prune << " tie " << tie;
    }
  }
}

// Random streams: few entities and bytes so conflicts are common, spans
// from zero width to long, coarse times so instants tie, several nodes.
TEST(InflightList, RandomStreamsMatchAllPairsReference) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    sim::Rng rng(seed);
    const int nodes = 1 + static_cast<int>(rng.next_below(3));
    const std::size_t n = 1 + rng.next_below(150);
    std::vector<Access> accs;
    for (std::size_t i = 0; i < n; ++i) {
      const auto t0 = static_cast<sim::Time>(rng.next_below(200));
      sim::Time len = 0;
      switch (rng.next_below(4)) {
        case 0: break;  // instant
        case 1: len = 1 + static_cast<sim::Time>(rng.next_below(5)); break;
        case 2: len = 1 + static_cast<sim::Time>(rng.next_below(40)); break;
        default: len = 1 + static_cast<sim::Time>(rng.next_below(200));
      }
      const std::uintptr_t lo = 8 * rng.next_below(8);
      const std::uintptr_t hi = lo + 8 * (1 + rng.next_below(3));
      accs.push_back(access(static_cast<int>(rng.next_below(
                                static_cast<std::uint64_t>(nodes))),
                            static_cast<int>(rng.next_below(5)), lo, hi, t0,
                            t0 + len, rng.next_below(4) != 0));
    }
    const std::uint64_t want = all_pairs(accs);
    for (const std::size_t min_prune : {1u, 2u, 16u}) {
      EXPECT_EQ(replay(accs, nodes, min_prune, seed), want)
          << "seed " << seed << " min_prune " << min_prune;
    }
  }
}

// Back-to-back services on one node: pruning keeps the list within a small
// constant however many accesses land.
TEST(InflightList, SequentialServicesKeepTheListBounded) {
  std::vector<Access> accs;
  for (int i = 0; i < 10000; ++i) {
    accs.push_back(access(0, i % 4, 0, 8, 10 * i, 10 * i + 10));
  }
  std::size_t max_size = 0;
  EXPECT_EQ(replay(accs, 1, 16, 0, &max_size), 0u);
  EXPECT_LE(max_size, 16u);
}

}  // namespace
