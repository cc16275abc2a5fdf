// Cross-path equivalence of RMA op semantics: one fixed program of every op
// kind (PUT, GET, ACC sum/max/replace/no-op, GET_ACC, FAO, CAS with a
// matching and a failing compare) over contiguous and strided target
// datatypes, run once per serving path. Every path must leave the same
// target window bytes, return the same fetched values and count the same
// atomicity violations, and all of them must match a sequential reference
// model of the program.
//
// Serving paths: the target rank's own poller, the thread and interrupt
// progress agents, self-targeted execution, the NIC (a DMAPP profile with
// hardware accumulates, so contiguous ops of every kind execute at
// delivery), and Casper ghosts under rank binding and under segment binding
// (whose 2-ghost split cuts several ops into per-ghost pieces).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/casper.hpp"
#include "mpi/runtime.hpp"
#include "net/profile.hpp"

namespace {

using namespace casper;
using mpi::AccOp;
using mpi::Datatype;
using mpi::Dt;
using mpi::OpKind;

constexpr int kElems = 64;  // window doubles per rank (512 bytes)

struct Op {
  OpKind kind;
  AccOp op;
  std::size_t disp;  // in doubles
  int tcount;
  Datatype tdt;
  std::vector<double> src;  // origin operand (CAS: {compare, desired})
};

int elems(const Op& o) {
  return o.tcount * o.tdt.blocklen;
}

/// The target indices an op touches, in packed order.
std::vector<std::size_t> touched(const Op& o) {
  std::vector<std::size_t> idx;
  for (int b = 0; b < o.tcount; ++b)
    for (int e = 0; e < o.tdt.blocklen; ++e)
      idx.push_back(o.disp + static_cast<std::size_t>(b * o.tdt.stride + e));
  return idx;
}

std::vector<Op> program() {
  const Datatype c = mpi::contig(Dt::Double);
  const Datatype v12 = mpi::vector_of(Dt::Double, 1, 2);
  const Datatype v23 = mpi::vector_of(Dt::Double, 2, 3);
  return {
      {OpKind::Put, AccOp::Replace, 0, 4, c, {10, 11, 12, 13}},
      {OpKind::Put, AccOp::Replace, 4, 3, v12, {20, 21, 22}},
      {OpKind::Get, AccOp::Replace, 0, 4, c, {}},
      {OpKind::Get, AccOp::Replace, 4, 3, v12, {}},
      {OpKind::Acc, AccOp::Sum, 10, 4, c, {0.5, 0.5, 0.5, 0.5}},
      {OpKind::Acc, AccOp::Sum, 14, 2, v23, {1, 2, 3, 4}},
      {OpKind::Acc, AccOp::Max, 10, 4, c, {0, 9, 0, 9}},
      {OpKind::Acc, AccOp::Replace, 20, 2, c, {-1, -2}},
      {OpKind::Acc, AccOp::Replace, 22, 2, v12, {-3, -4}},
      {OpKind::Acc, AccOp::NoOp, 10, 4, c, {7, 7, 7, 7}},
      {OpKind::Acc, AccOp::NoOp, 14, 2, v23, {7, 7, 7, 7}},
      {OpKind::GetAcc, AccOp::Sum, 10, 4, c, {1, 1, 1, 1}},
      {OpKind::GetAcc, AccOp::Sum, 14, 2, v23, {2, 2, 2, 2}},
      {OpKind::GetAcc, AccOp::Replace, 24, 2, c, {30, 31}},
      {OpKind::GetAcc, AccOp::NoOp, 26, 3, v12, {5, 5, 5}},
      // Across the 256-byte boundary where a 2-ghost segment binding of a
      // 512-byte node buffer splits.
      {OpKind::Acc, AccOp::Sum, 30, 6, c, {1, 2, 3, 4, 5, 6}},
      {OpKind::GetAcc, AccOp::Sum, 29, 4, v12, {0.25, 0.25, 0.25, 0.25}},
      {OpKind::Put, AccOp::Replace, 36, 3, v12, {40, 41, 42}},
      {OpKind::Get, AccOp::Replace, 28, 12, c, {}},
      {OpKind::Fao, AccOp::Sum, 48, 1, c, {2.5}},
      {OpKind::Fao, AccOp::Replace, 49, 1, c, {7}},
      {OpKind::Fao, AccOp::NoOp, 50, 1, c, {3}},
      // Initial value at 51 is 1 + 51/4 = 13.75: the first CAS matches.
      {OpKind::Cas, AccOp::Replace, 51, 1, c, {13.75, 99}},
      {OpKind::Cas, AccOp::Replace, 52, 1, c, {0, 77}},
  };
}

double initial(std::size_t i) { return 1.0 + static_cast<double>(i) * 0.25; }

struct Outcome {
  std::vector<double> window;
  std::vector<double> fetched;
  std::uint64_t atomicity = 0;
  std::uint64_t split_subops = 0;  // coverage only, not compared
};

/// Sequential reference semantics of the program.
Outcome reference() {
  Outcome out;
  out.window.resize(kElems);
  for (std::size_t i = 0; i < kElems; ++i) out.window[i] = initial(i);
  for (const Op& o : program()) {
    const auto idx = touched(o);
    for (std::size_t k = 0; k < idx.size(); ++k) {
      double& t = out.window[idx[k]];
      switch (o.kind) {
        case OpKind::Put:
          t = o.src[k];
          break;
        case OpKind::Get:
          out.fetched.push_back(t);
          break;
        case OpKind::GetAcc:
        case OpKind::Fao:
          out.fetched.push_back(t);
          [[fallthrough]];
        case OpKind::Acc:
          if (o.op == AccOp::Sum) t += o.src[k];
          if (o.op == AccOp::Max && o.src[k] > t) t = o.src[k];
          if (o.op == AccOp::Replace) t = o.src[k];
          break;
        case OpKind::Cas:
          out.fetched.push_back(t);
          if (t == o.src[0]) t = o.src[1];
          break;
        default:
          break;
      }
    }
  }
  return out;
}

/// Issue the program from the calling rank to `target` (a comm rank of
/// `win`) under an exclusive lock, flushing after every op so results are
/// in order.
std::vector<double> issue_program(mpi::Env& env, int target,
                                  const mpi::Win& win) {
  const Datatype c = mpi::contig(Dt::Double);
  const auto ops = program();
  std::vector<std::vector<double>> res(ops.size());
  env.win_lock(mpi::LockType::Exclusive, target, 0, win);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op& o = ops[i];
    const int n = elems(o);
    res[i].assign(static_cast<std::size_t>(n), 0.0);
    switch (o.kind) {
      case OpKind::Put:
        env.put(o.src.data(), n, c, target, o.disp, o.tcount, o.tdt, win);
        break;
      case OpKind::Get:
        env.get(res[i].data(), n, c, target, o.disp, o.tcount, o.tdt, win);
        break;
      case OpKind::Acc:
        env.accumulate(o.src.data(), n, c, target, o.disp, o.tcount, o.tdt,
                       o.op, win);
        break;
      case OpKind::GetAcc:
        env.get_accumulate(o.src.data(), n, c, res[i].data(), n, c, target,
                           o.disp, o.tcount, o.tdt, o.op, win);
        break;
      case OpKind::Fao:
        env.fetch_and_op(o.src.data(), res[i].data(), Dt::Double, target,
                         o.disp, o.op, win);
        break;
      case OpKind::Cas:
        env.compare_and_swap(&o.src[0], &o.src[1], res[i].data(), Dt::Double,
                             target, o.disp, win);
        break;
      default:
        break;
    }
    env.win_flush(target, win);
  }
  env.win_unlock(target, win);
  std::vector<double> fetched;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const OpKind k = ops[i].kind;
    if (k == OpKind::Put || k == OpKind::Acc) continue;
    fetched.insert(fetched.end(), res[i].begin(), res[i].end());
  }
  return fetched;
}

enum class Path { Poller, Thread, Interrupt, Self, Nic, GhostRank, GhostSeg };

Outcome run_path(Path p) {
  mpi::RunConfig rc;
  rc.machine.profile = net::cray_xc30_regular();
  rc.machine.topo.nodes = 2;
  rc.machine.topo.cores_per_node = 1;
  mpi::LayerFactory layer;
  switch (p) {
    case Path::Thread:
      rc.progress.kind = progress::Kind::Thread;
      break;
    case Path::Interrupt:
      rc.progress.kind = progress::Kind::Interrupt;
      break;
    case Path::Self:
      rc.machine.topo.nodes = 1;
      break;
    case Path::Nic:
      rc.machine.profile = net::cray_xc30_dmapp();
      rc.machine.profile.hw_contig_acc = true;
      break;
    case Path::GhostRank:
    case Path::GhostSeg: {
      rc.machine.topo.cores_per_node = 3;  // 1 user + 2 ghosts per node
      core::Config cc;
      cc.ghosts_per_node = 2;
      cc.binding = p == Path::GhostSeg ? core::Binding::Segment
                                       : core::Binding::Rank;
      layer = core::layer(cc);
      break;
    }
    case Path::Poller:
      break;
  }

  Outcome out;
  mpi::Runtime rt(
      rc,
      [&](mpi::Env& env) {
        mpi::Comm w = env.world();
        const int me = env.rank(w);
        const int target = env.size(w) - 1;
        void* base = nullptr;
        mpi::Win win = env.win_allocate(kElems * sizeof(double),
                                        sizeof(double), mpi::Info{}, w, &base);
        auto* mem = static_cast<double*>(base);
        if (me == target) {
          for (std::size_t i = 0; i < kElems; ++i) mem[i] = initial(i);
        }
        env.barrier(w);
        if (me == 0) out.fetched = issue_program(env, target, win);
        env.barrier(w);
        if (me == target) out.window.assign(mem, mem + kElems);
        env.win_free(win);
      },
      layer);
  rt.run();
  out.atomicity = rt.stats().get("atomicity_violations");
  out.split_subops = rt.stats().get("casper.split_subops");
  return out;
}

void expect_same(const Outcome& got, const Outcome& want, const char* path) {
  EXPECT_EQ(got.window, want.window) << path;
  EXPECT_EQ(got.fetched, want.fetched) << path;
  EXPECT_EQ(got.atomicity, want.atomicity) << path;
}

TEST(RmaPaths, EveryServingPathMatchesTheReferenceModel) {
  const Outcome ref = reference();
  ASSERT_EQ(ref.window[51], 99.0);   // matching CAS landed
  ASSERT_EQ(ref.window[52], initial(52));  // failing CAS did not
  const Outcome poller = run_path(Path::Poller);
  expect_same(poller, ref, "poller");
  expect_same(run_path(Path::Thread), poller, "thread agent");
  expect_same(run_path(Path::Interrupt), poller, "interrupt agent");
  expect_same(run_path(Path::Self), poller, "self");
  expect_same(run_path(Path::Nic), poller, "nic");
  expect_same(run_path(Path::GhostRank), poller, "casper rank binding");
  const Outcome seg = run_path(Path::GhostSeg);
  expect_same(seg, poller, "casper segment binding");
  EXPECT_GT(seg.split_subops, 0u);
}

TEST(RmaPaths, NicPathServesContiguousOpsInHardware) {
  // Guard the coverage claim above: with hardware accumulates every
  // contiguous op of the program, accumulates included, bypasses the
  // target CPU, and only the strided ones take the software path.
  mpi::RunConfig rc;
  rc.machine.profile = net::cray_xc30_dmapp();
  rc.machine.profile.hw_contig_acc = true;
  rc.machine.topo.nodes = 2;
  rc.machine.topo.cores_per_node = 1;
  mpi::Runtime rt(rc, [](mpi::Env& env) {
    mpi::Comm w = env.world();
    void* base = nullptr;
    mpi::Win win = env.win_allocate(kElems * sizeof(double), sizeof(double),
                                    mpi::Info{}, w, &base);
    env.barrier(w);
    if (env.rank(w) == 0) issue_program(env, 1, win);
    env.barrier(w);
    env.win_free(win);
  });
  rt.run();
  std::uint64_t contiguous = 0, strided = 0;
  for (const Op& o : program()) (o.tdt.contiguous() ? contiguous : strided)++;
  EXPECT_EQ(rt.stats().get("hw_ops"), contiguous);
  EXPECT_EQ(rt.stats().get("sw_ops"), strided);
}

}  // namespace
