// Cross-shard determinism of the FULL runtime stack (not just the raw
// engine, which tests/test_sim_engine_sharded.cpp covers): a fig5-style
// workload — all-to-all RMA, compute, RMA burst, barrier — must produce
// IDENTICAL virtual-time results and stats counters for every shard count.
// The conservative-lookahead engine guarantees cross-shard events execute in
// (t, ...) order exactly as the single-shard scheduler would, so simulated
// results are a deterministic fact of the workload, independent of how the
// rank space is partitioned over host worker threads — under the unperturbed
// tie order and under any perturb_seed.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "core/casper.hpp"
#include "core/layer_impl.hpp"
#include "mpi/runtime.hpp"
#include "net/profile.hpp"

namespace {

using namespace casper;
using mpi::AccOp;
using mpi::Comm;
using mpi::Dt;
using mpi::Info;
using mpi::RunConfig;
using mpi::Win;

/// Everything a run leaves behind that must be shard-count invariant.
struct Outcome {
  sim::Time rank0_end = 0;           // virtual completion time on rank 0
  std::vector<double> window;        // final window contents on rank 0
  std::map<std::string, std::uint64_t> counters;
};

/// fig5-style iteration on `nodes` single-process nodes: one accumulate to
/// every peer, flush, 100us compute, ten more accumulates per peer, flush,
/// barrier. Plus a p2p ring exchange so the send path is exercised too.
void fig5_body(mpi::Env& env, Outcome* out) {
  Comm w = env.world();
  const int p = env.size(w);
  const int me = env.rank(w);
  void* base = nullptr;
  Win win = env.win_allocate(static_cast<std::size_t>(p) * sizeof(double),
                             sizeof(double), Info{}, w, &base);
  env.win_lock_all(0, win);
  env.barrier(w);
  double v = 1.0;
  double ring = 0.0;
  for (int it = 0; it < 2; ++it) {
    for (int t = 0; t < p; ++t) {
      if (t == me) continue;
      env.accumulate(&v, 1, t, static_cast<std::size_t>(me), AccOp::Sum, win);
    }
    env.win_flush_all(win);
    env.compute(sim::us(100));
    for (int t = 0; t < p; ++t) {
      if (t == me) continue;
      for (int k = 0; k < 10; ++k) {
        env.accumulate(&v, 1, t, static_cast<std::size_t>(me), AccOp::Sum,
                       win);
      }
    }
    env.win_flush_all(win);
    mpi::Request reqs[2];
    reqs[0] = env.irecv(&ring, 1, Dt::Double, (me + p - 1) % p, 3, w);
    reqs[1] = env.isend(&v, 1, Dt::Double, (me + 1) % p, 3, w);
    env.waitall(reqs, 2);
    env.barrier(w);
  }
  env.win_unlock_all(win);
  if (me == 0) {
    out->rank0_end = env.now();
    const double* d = static_cast<const double*>(base);
    out->window.assign(d, d + p);
  }
  env.win_free(win);
}

Outcome run_fig5(int nodes, int shards, progress::Kind kind,
                 bool oversub = false, bool casper_mode = false,
                 std::uint64_t perturb = 0) {
  RunConfig c;
  c.perturb_seed = perturb;
  c.machine.profile = net::cray_xc30_regular();
  c.machine.topo.nodes = nodes;
  c.machine.topo.cores_per_node = casper_mode ? 2 : 1;
  c.progress.kind = kind;
  c.progress.oversubscribed = oversub;
  c.shards = shards;
  Outcome out;
  auto body = [&out](mpi::Env& env) { fig5_body(env, &out); };
  mpi::LayerFactory layer = nullptr;
  if (casper_mode) {
    core::Config cc;
    cc.ghosts_per_node = 1;
    layer = core::layer(cc);
  }
  // Runtime directly (not mpi::exec): the folded counter registry is only
  // valid after run() returns, so grab it before the runtime dies.
  mpi::Runtime rt(c, body, layer);
  rt.run();
  out.counters = rt.stats().counters();
  return out;
}

class ShardedRuntime : public ::testing::Test {};

void expect_invariant(progress::Kind kind, bool oversub, bool casper_mode,
                      const char* what, std::uint64_t perturb = 0) {
  const Outcome ref = run_fig5(8, 1, kind, oversub, casper_mode, perturb);
  ASSERT_GT(ref.rank0_end, 0) << what;
  for (int shards : {2, 4, 8}) {
    const Outcome got =
        run_fig5(8, shards, kind, oversub, casper_mode, perturb);
    EXPECT_EQ(ref.rank0_end, got.rank0_end)
        << what << ": virtual completion time changed at shards=" << shards;
    EXPECT_EQ(ref.window, got.window)
        << what << ": window bytes changed at shards=" << shards;
    EXPECT_EQ(ref.counters, got.counters)
        << what << ": stats counters changed at shards=" << shards;
  }
}

TEST_F(ShardedRuntime, Fig5OriginalModeShardInvariant) {
  expect_invariant(progress::Kind::None, false, false, "original");
}

TEST_F(ShardedRuntime, Fig5ThreadModeShardInvariant) {
  expect_invariant(progress::Kind::Thread, true, false, "thread");
}

TEST_F(ShardedRuntime, Fig5InterruptModeShardInvariant) {
  expect_invariant(progress::Kind::Interrupt, false, false, "dmapp");
}

TEST_F(ShardedRuntime, Fig5CasperModeShardInvariant) {
  expect_invariant(progress::Kind::None, false, true, "casper");
}

// Perturbation salts hash virtual-time facts of each tied party, so one
// perturb seed picks the same interleaving whatever the shard layout.
TEST_F(ShardedRuntime, Fig5PerturbedScheduleShardInvariant) {
  expect_invariant(progress::Kind::None, false, true, "casper perturbed",
                   0x5eedf00dULL);
  expect_invariant(progress::Kind::Thread, true, false, "thread perturbed",
                   0x1d);
}

// Unbound concurrent accumulates (tests/test_atomicity_hazard.cpp) on every
// node at once: both ranks of a node expose the node's one buffer, and each
// origin accumulates into the next node's buffer through a different one of
// them, so two entities read-modify-write the same bytes concurrently.
// Origins start at node-dependent times and mix one-element and whole-buffer
// accumulates, so long and short services of different nodes interleave.
// The count must be a fact of the workload at every shard count, as every
// other counter is: one node's short service landing must not hide what
// another node's long service overlaps, whichever nodes share a shard.
std::uint64_t unbound_violations(int shards, progress::Kind kind) {
  constexpr int kNodes = 8;
  constexpr int kElems = 256;
  RunConfig c;
  c.machine.profile = net::cray_xc30_regular();
  c.machine.topo.nodes = kNodes;
  c.machine.topo.cores_per_node = 2;
  c.progress.kind = kind;
  c.shards = shards;
  std::vector<std::vector<double>> bufs(kNodes,
                                        std::vector<double>(kElems, 0.0));
  auto body = [&bufs](mpi::Env& env) {
    Comm w = env.world();
    const int me = env.rank(w);
    const int node = me / 2;
    Win win = env.win_create(bufs[static_cast<std::size_t>(node)].data(),
                             kElems * sizeof(double), sizeof(double), Info{},
                             w);
    env.win_lock_all(0, win);
    env.compute(sim::us(node));
    const int target = 2 * ((node + 1) % kNodes) + me % 2;
    const std::vector<double> ones(kElems, 1.0);
    for (int i = 0; i < 12 + node; ++i) {
      const bool whole = (i + me) % 3 == 0;
      env.accumulate(ones.data(), whole ? kElems : 1, target,
                     whole ? 0 : static_cast<std::size_t>(i % kElems),
                     AccOp::Sum, win);
    }
    env.win_flush_all(win);
    env.win_unlock_all(win);
    env.barrier(w);
    env.win_free(win);
  };
  mpi::Runtime rt(c, body);
  rt.run();
  return rt.stats().get("atomicity_violations");
}

TEST_F(ShardedRuntime, AtomicityViolationsShardInvariant) {
  for (const progress::Kind kind :
       {progress::Kind::None, progress::Kind::Thread}) {
    const std::uint64_t ref = unbound_violations(1, kind);
    EXPECT_GT(ref, 0u);
    for (const int shards : {2, 4}) {
      EXPECT_EQ(unbound_violations(shards, kind), ref)
          << "kind " << static_cast<int>(kind) << " shards " << shards;
    }
  }
}

// Two Casper windows at shards=4: members on different worker threads build
// or attach to each window's shared state concurrently (the registry path
// TSan watches), and both windows carry correct, separate results.
TEST_F(ShardedRuntime, CasperWindowsAttachAcrossShards) {
  RunConfig c;
  c.machine.profile = net::cray_xc30_regular();
  c.machine.topo.nodes = 8;
  c.machine.topo.cores_per_node = 2;
  c.shards = 4;
  core::Config cc;
  cc.ghosts_per_node = 1;
  std::vector<double> sums(2, 0.0);
  std::vector<const void*> states(2 * 8, nullptr);  // per window, user rank
  auto body = [&sums, &states](mpi::Env& env) {
    Comm w = env.world();
    auto& L = dynamic_cast<core::CasperLayer&>(env.runtime().layer());
    void *b1 = nullptr, *b2 = nullptr;
    Win w1 = env.win_allocate(sizeof(double), sizeof(double), Info{}, w, &b1);
    Win w2 = env.win_allocate(sizeof(double), sizeof(double), Info{}, w, &b2);
    EXPECT_NE(L.window_state(w1), L.window_state(w2));
    EXPECT_EQ(L.window_state(w1), L.window_state_of_seq(0));
    EXPECT_EQ(L.window_state(w2), L.window_state_of_seq(1));
    const auto me = static_cast<std::size_t>(env.rank(w));
    states[me] = L.window_state(w1);
    states[8 + me] = L.window_state(w2);
    env.win_lock_all(0, w1);
    env.win_lock_all(0, w2);
    double x = 1.0, y = 10.0;
    env.accumulate(&x, 1, 0, 0, AccOp::Sum, w1);
    env.accumulate(&y, 1, 0, 0, AccOp::Sum, w2);
    env.win_unlock_all(w1);
    env.win_unlock_all(w2);
    env.barrier(w);
    if (env.rank(w) == 0) {
      sums[0] = *static_cast<double*>(b1);
      sums[1] = *static_cast<double*>(b2);
    }
    env.barrier(w);
    env.win_free(w2);
    env.win_free(w1);
  };
  mpi::Runtime rt(c, body, core::layer(cc));
  rt.run();
  EXPECT_EQ(sums[0], 8.0);
  EXPECT_EQ(sums[1], 80.0);
  for (std::size_t r = 0; r < 8; ++r) {
    EXPECT_EQ(states[r], states[0]) << "user " << r;
    EXPECT_EQ(states[8 + r], states[8]) << "user " << r;
  }
  auto& L = dynamic_cast<core::CasperLayer&>(rt.layer());
  EXPECT_EQ(L.windows_by_handle(), 0u);
  EXPECT_EQ(L.window_state_of_seq(0), nullptr);
  EXPECT_EQ(L.window_state_of_seq(1), nullptr);
}

}  // namespace
