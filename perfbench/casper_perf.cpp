// casper_perf: run one benchmark workload of the Casper simulator once and
// print what it measured as one JSON object on stdout.
//
//   casper_perf --workload a2a_casper|xl_tiles|kv_zipf --seed N [--trace]
//
// Workloads (perfbench/NOTES.md says why each was chosen):
//   a2a_casper  256 user ranks (16 nodes x 16) under Casper with 8 ghosts
//               per node and rank binding: win_allocate, lock_all, 4 rounds
//               of one 8-byte accumulate to every peer, flush_all,
//               unlock_all, win_free.
//   xl_tiles    the fig5xl_scale tiled exchange at 2048 ranks (256 nodes x
//               8), original MPI, 2 engine shards, 8 iterations.
//   kv_zipf     the fig_kv store (FAO ticket-lock buckets, 48 x 4 ways) on
//               4 nodes x 4 cores with 1 ghost per node (12 clients),
//               Zipf s=0.99 over 256 keys, 75/25 GET/PUT, 8000 ops per
//               client, LinearChecker as history sink, ShadowOracle riding
//               as an observer.
//
// The seed is RunConfig::seed and shapes the inputs: the peer order of every
// a2a rank, the accumulate and put values, the per-iteration compute
// imbalance of the tiles, and the KV traffic. Every virtual-time result is a
// deterministic function of (workload, seed).
//
// Host time is measured from outside the library. The untraced run takes
// timestamps only around Runtime construction, the setup call, run() and
// the output checks. The traced run (--trace) also attaches an
// obs::Recorder and attributes every host nanosecond of each engine shard
// thread to a layer (see Attribution below).
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "check/linear.hpp"
#include "check/oracle.hpp"
#include "core/casper.hpp"
#include "kv/kv.hpp"
#include "kv/traffic.hpp"
#include "mpi/runtime.hpp"
#include "net/profile.hpp"
#include "obs/record.hpp"
#include "sim/rng.hpp"

using namespace casper;

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------
// Host-time attribution (traced runs only).
//
// An engine shard is one host thread: at any instant it runs either an event
// callback, a rank fiber, or its own scheduling loop. Every shard therefore
// carries one "current layer" and a timestamp; each boundary crossing closes
// the running interval into the current layer and opens the next one. The
// boundaries are:
//   - sim::SchedObserver::on_schedule: -1 opens mpi.event (an event
//     callback, i.e. AM delivery / NIC / commit work); a rank opens that
//     rank's own current layer (ghost ranks are always core.ghost);
//   - Span, around each public Env / KvStore call the workload makes: the
//     call's layer on entry, the caller's layer (normally app) on return.
//     A rank blocked inside a call stays in the call's layer, so when the
//     engine resumes it the time lands in that layer again;
//   - TimedObserver, around each RmaObserver callback: check.observer.
// Time between a rank yielding and the next decision is the engine's own
// loop and is charged to the layer that yielded; a rank that yields inside
// Env::compute opens sim.loop for exactly that interval.
//
// Sharded runs add the window barrier, where a shard thread sleeps until the
// slowest shard finishes the window. A decision at virtual time t >= (first
// decision time of the current window) + lookahead must lie in a later
// window; there the shard samples its thread CPU clock (too slow to read at
// every boundary), and the wall time since the previous sample that the
// thread did not spend on a CPU is moved from the interval that crossed the
// barrier into sim.barrier_wait (at most that interval's length).
enum Cat : std::uint8_t {
  kUnattributed,
  kApp,
  kIssue,
  kSync,
  kColl,
  kWinAlloc,
  kWinFree,
  kKvOpen,
  kKvOp,
  kKvClose,
  kEvent,
  kGhost,
  kObserver,
  kBoot,
  kLoop,
  kBarrier,
  kNumCats
};

constexpr const char* kCatMetric[kNumCats] = {
    "obs.unattributed_host_s", "app.host_s",
    "mpi.issue_host_s",        "mpi.sync_host_s",
    "mpi.coll_host_s",         "core.win_alloc_host_s",
    "core.win_free_host_s",    "kv.open_host_s",
    "kv.op_host_s",            "kv.close_host_s",
    "mpi.event_host_s",        "core.ghost_host_s",
    "check.observer_host_s",   "mpi.rank_boot_host_s",
    "sim.loop_host_s",         "sim.barrier_wait_host_s",
};

class Attribution final : public sim::SchedObserver {
 public:
  struct alignas(64) Shard {
    Cat cur = kUnattributed;
    std::int64_t last = 0;
    std::int64_t ns[kNumCats] = {};
    std::uint64_t decisions = 0, resumes = 0, events = 0, windows = 0;
    // Sharded runs: the current window's first decision and CPU sample.
    bool in_window = false;
    sim::Time win_t = 0;
    std::int64_t wall_mark = 0, cpu_mark = 0;
  };

  Attribution(const sim::Engine& engine, std::vector<Cat> rank_cat,
              sim::SchedObserver* next)
      : engine_(engine),
        shards_(static_cast<std::size_t>(engine.shards())),
        rank_cat_(std::move(rank_cat)),
        next_(next) {}

  /// Open every shard at `t` (just before Runtime::run()).
  void start(std::int64_t t) {
    for (Shard& s : shards_) {
      s.cur = kUnattributed;
      s.last = t;
    }
  }
  /// Close every shard at `t` (Runtime::run() returned; workers joined).
  void stop(std::int64_t t) {
    for (Shard& s : shards_) close(s, s.cur, t);
  }

  void on_schedule(sim::Time t, int rank) override {
    Shard& s = mine();
    const std::int64_t now = now_ns();
    if (shards_.size() > 1 &&
        (!s.in_window || t >= s.win_t + engine_.lookahead())) {
      new_window(s, t, now);
    }
    ++s.decisions;
    if (rank < 0) {
      ++s.events;
      close(s, kEvent, now);
    } else {
      ++s.resumes;
      close(s, rank_cat_[static_cast<std::size_t>(rank)], now);
    }
    if (next_ != nullptr) next_->on_schedule(t, rank);
  }

  /// Rank `rank` (running on this thread) enters layer `c`; returns the
  /// layer to restore on leave().
  Cat enter(int rank, Cat c) {
    Cat& rc = rank_cat_[static_cast<std::size_t>(rank)];
    const Cat prev = rc;
    rc = c;
    close(mine(), c, now_ns());
    return prev;
  }
  void leave(int rank, Cat prev) {
    rank_cat_[static_cast<std::size_t>(rank)] = prev;
    close(mine(), prev, now_ns());
  }

  /// Nested interval on this thread whatever runs (observer callbacks).
  Cat push(Cat c) {
    Shard& s = mine();
    const Cat prev = s.cur;
    close(s, c, now_ns());
    return prev;
  }
  void pop(Cat prev) { close(mine(), prev, now_ns()); }

  const std::vector<Shard>& shards() const { return shards_; }

 private:
  Shard& mine() {
    return shards_[static_cast<std::size_t>(sim::Engine::current_shard())];
  }
  static void close(Shard& s, Cat next, std::int64_t t) {
    s.ns[s.cur] += t - s.last;
    s.last = t;
    s.cur = next;
  }
  static std::int64_t thread_cpu_ns() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
  }
  static void new_window(Shard& s, sim::Time t, std::int64_t now) {
    const std::int64_t cpu = thread_cpu_ns();
    if (s.in_window) {
      ++s.windows;
      const std::int64_t off_cpu = (now - s.wall_mark) - (cpu - s.cpu_mark);
      const std::int64_t wait =
          std::clamp<std::int64_t>(off_cpu, 0, now - s.last);
      s.ns[kBarrier] += wait;
      s.last += wait;
    }
    s.in_window = true;
    s.win_t = t;
    s.wall_mark = now;
    s.cpu_mark = cpu;
  }

  const sim::Engine& engine_;
  std::vector<Shard> shards_;
  std::vector<Cat> rank_cat_;  ///< by world rank; written by its own shard
  sim::SchedObserver* next_;
};

Attribution* g_attr = nullptr;  // non-null only in traced runs
constexpr std::size_t kTraceRing = 256;  // trace records kept per entity

/// Attribute the enclosed public-API call to layer `c` (traced runs).
class Span {
 public:
  Span(const mpi::Env& env, Cat c) : rank_(env.world_rank()) {
    if (g_attr != nullptr) prev_ = g_attr->enter(rank_, c);
  }
  ~Span() {
    if (g_attr != nullptr) g_attr->leave(rank_, prev_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int rank_;
  Cat prev_ = kApp;
};

/// Forwarding decorator: times every callback of the wrapped observer.
class TimedObserver final : public mpi::RmaObserver {
 public:
  explicit TimedObserver(mpi::RmaObserver& inner) : inner_(inner) {}

  void on_win_register(mpi::WinImpl& win) override {
    Scope s;
    inner_.on_win_register(win);
  }
  void on_win_free(mpi::WinImpl& win) override {
    Scope s;
    inner_.on_win_free(win);
  }
  void on_op_commit(const mpi::AmOp& op, sim::Time t, int entity) override {
    Scope s;
    inner_.on_op_commit(op, t, entity);
  }
  void on_sync(mpi::WinImpl& win, int world_rank, mpi::SyncKind kind,
               int target, sim::Time t) override {
    Scope s;
    inner_.on_sync(win, world_rank, kind, target, t);
  }
  void on_op_issue(const mpi::AmOp& op, sim::Time t) override {
    Scope s;
    inner_.on_op_issue(op, t);
  }
  void on_epoch_begin(mpi::WinImpl& win, int world_rank, mpi::EpochEv kind,
                      int target, sim::Time t) override {
    Scope s;
    inner_.on_epoch_begin(win, world_rank, kind, target, t);
  }
  void on_local_access(mpi::WinImpl& win, int comm_rank, std::size_t offset,
                       std::size_t len, bool is_store, sim::Time t) override {
    Scope s;
    inner_.on_local_access(win, comm_rank, offset, len, is_store, t);
  }
  bool concurrent_safe() const override { return inner_.concurrent_safe(); }

 private:
  struct Scope {
    Scope() : prev(g_attr->push(kObserver)) {}
    ~Scope() { g_attr->pop(prev); }
    Cat prev;
  };
  mpi::RmaObserver& inner_;
};

// ---------------------------------------------------------------------------
// Workloads.

/// Small positive integer drawn from (seed, a, b): exact in a double and in
/// any sum of a few thousand of them.
double small_value(std::uint64_t seed, std::uint64_t a, std::uint64_t b,
                   std::uint64_t range) {
  sim::Rng rng(seed ^ (a * 0x9e3779b97f4a7c15ULL), b);
  return static_cast<double>(1 + rng.next_below(range));
}

/// What the rank code hands back; written on user rank 0 unless noted.
struct Shared {
  std::vector<std::int64_t> setup_done_ns;  ///< by world rank
  std::vector<double> setup_rss_mb;         ///< by world rank
  double virt_us = 0;
  std::uint64_t bad_values = 0;  ///< output-check mismatches, all ranks
  kv::KvStats kv_stats;
  std::uint64_t kv_acc_ops = 0;
  std::uint64_t kv_fingerprint = 0;
};

void mark_setup_done(const mpi::Env& env, Shared& sh) {
  const auto r = static_cast<std::size_t>(env.world_rank());
  sh.setup_done_ns[r] = now_ns();
  sh.setup_rss_mb[r] = peak_rss_mb();
}

std::uint64_t allreduce_sum(mpi::Env& env, const mpi::Comm& c,
                            std::uint64_t v) {
  double in = static_cast<double>(v), out = 0;
  Span s(env, kColl);
  env.allreduce(&in, &out, 1, mpi::Dt::Double, mpi::AccOp::Sum, c);
  return static_cast<std::uint64_t>(out);
}

double allreduce_max(mpi::Env& env, const mpi::Comm& c, double v) {
  double out = 0;
  Span s(env, kColl);
  env.allreduce(&v, &out, 1, mpi::Dt::Double, mpi::AccOp::Max, c);
  return out;
}

// --- a2a_casper -------------------------------------------------------------
constexpr int kA2aNodes = 16, kA2aUsers = 16, kA2aGhosts = 8, kA2aRounds = 4;

struct A2aInputs {
  std::vector<std::vector<int>> order;  ///< per user rank: shuffled peers
  std::uint64_t seed = 0;
  double value(int origin, int round) const {
    return small_value(seed, static_cast<std::uint64_t>(origin),
                       static_cast<std::uint64_t>(round), 16);
  }
};

A2aInputs a2a_inputs(std::uint64_t seed) {
  const int p = kA2aNodes * kA2aUsers;
  A2aInputs in;
  in.seed = seed;
  in.order.resize(static_cast<std::size_t>(p));
  for (int me = 0; me < p; ++me) {
    std::vector<int>& o = in.order[static_cast<std::size_t>(me)];
    for (int t = 0; t < p; ++t) {
      if (t != me) o.push_back(t);
    }
    sim::Rng rng(seed, static_cast<std::uint64_t>(me));
    for (std::size_t i = o.size() - 1; i > 0; --i) {
      std::swap(o[i], o[static_cast<std::size_t>(rng.next_below(i + 1))]);
    }
  }
  return in;
}

void a2a_main(mpi::Env& env, const A2aInputs& in, Shared& sh) {
  mpi::Comm w = env.world();
  const int p = env.size(w);
  const int me = env.rank(w);
  void* base = nullptr;
  mpi::Win win;
  {
    Span s(env, kWinAlloc);
    win = env.win_allocate(static_cast<std::size_t>(p) * sizeof(double),
                           sizeof(double), mpi::Info{}, w, &base);
  }
  mark_setup_done(env, sh);
  {
    Span s(env, kSync);
    env.win_lock_all(0, win);
  }
  {
    Span s(env, kColl);
    env.barrier(w);
  }
  const sim::Time t0 = env.now();
  // Origin buffers must live until the flush that completes their ops.
  double vals[kA2aRounds];
  for (int r = 0; r < kA2aRounds; ++r) vals[r] = in.value(me, r);
  const std::vector<int>& order = in.order[static_cast<std::size_t>(me)];
  for (int r = 0; r < kA2aRounds; ++r) {
    for (int t : order) {
      Span s(env, kIssue);
      env.accumulate(&vals[r], 1, t, static_cast<std::size_t>(me),
                     mpi::AccOp::Sum, win);
    }
  }
  {
    Span s(env, kSync);
    env.win_flush_all(win);
  }
  {
    Span s(env, kColl);
    env.barrier(w);
  }
  const double us = allreduce_max(env, w, sim::to_us(env.now() - t0));
  {
    Span s(env, kSync);
    env.win_sync(win);
  }
  // Slot o of my segment holds the sum of origin o's rounds.
  const auto* seg = static_cast<const double*>(base);
  std::uint64_t bad = 0;
  for (int o = 0; o < p; ++o) {
    double want = 0;
    if (o != me) {
      for (int r = 0; r < kA2aRounds; ++r) want += in.value(o, r);
    }
    if (seg[o] != want) ++bad;
  }
  bad = allreduce_sum(env, w, bad);
  {
    Span s(env, kSync);
    env.win_unlock_all(win);
  }
  {
    Span s(env, kWinFree);
    env.win_free(win);
  }
  if (me == 0) {
    sh.virt_us = us;
    sh.bad_values = bad;
  }
}

// --- xl_tiles ---------------------------------------------------------------
constexpr int kXlNodes = 256, kXlCpn = 8, kXlShards = 2, kXlIters = 8;
constexpr int kTile = 64, kDegree = 8, kBurst = 4;

struct XlInputs {
  std::uint64_t seed = 0;
  /// Accumulate value of (origin, iteration); put and ring values likewise.
  double acc(int o, int it) const { return small_value(seed, 3 * o, it, 8); }
  double put(int o, int it) const {
    return small_value(seed, 3 * o + 1, it, 1000);
  }
  double ring(int o, int it) const {
    return small_value(seed, 3 * o + 2, it, 1000);
  }
  /// Compute phase of (rank, iteration): 100 us +- 5 us imbalance.
  sim::Time compute(int o, int it) const {
    sim::Rng rng(seed ^ 0xc0ffeeULL, static_cast<std::uint64_t>(o) * 64 +
                                         static_cast<std::uint64_t>(it));
    return sim::us(95) + static_cast<sim::Time>(rng.next_below(10001));
  }
};

void xl_main(mpi::Env& env, const XlInputs& in, Shared& sh) {
  mpi::Comm w = env.world();
  const int p = env.size(w);
  const int me = env.rank(w);
  mpi::Comm tile;
  {
    Span s(env, kColl);
    tile = env.comm_split(w, me / kTile, me);
  }
  const int tn = env.size(tile);
  const int tr = env.rank(tile);
  // Slots [0, tn): accumulates by origin; [tn, 2 tn): puts by origin.
  void* base = nullptr;
  mpi::Win win;
  {
    Span s(env, kWinAlloc);
    win = env.win_allocate(2 * static_cast<std::size_t>(tn) * sizeof(double),
                           sizeof(double), mpi::Info{}, tile, &base);
  }
  mark_setup_done(env, sh);
  {
    Span s(env, kSync);
    env.win_lock_all(0, win);
  }
  {
    Span s(env, kColl);
    env.barrier(w);
  }
  const sim::Time start = env.now();
  const int tile0 = me - tr;  // world rank of tile rank 0
  std::uint64_t bad = 0;
  for (int it = 0; it < kXlIters; ++it) {
    const double va = in.acc(me, it);
    const double vp = in.put(me, it);
    const double vr = in.ring(me, it);
    double ring = 0;
    for (int k = 1; k <= kDegree; ++k) {
      Span s(env, kIssue);
      env.accumulate(&va, 1, (tr + k) % tn, static_cast<std::size_t>(tr),
                     mpi::AccOp::Sum, win);
    }
    {
      Span s(env, kSync);
      env.win_flush_all(win);
    }
    {
      Span s(env, kLoop);
      env.compute(in.compute(me, it));
    }
    for (int k = 1; k <= kDegree; ++k) {
      for (int b = 0; b < kBurst; ++b) {
        Span s(env, kIssue);
        env.put(&vp, 1, (tr + k) % tn, static_cast<std::size_t>(tn + tr),
                win);
      }
    }
    {
      Span s(env, kSync);
      env.win_flush_all(win);
    }
    // Tile-stride ring over the world: crosses node and shard boundaries.
    const int src = (me + p - kTile) % p;
    {
      Span s(env, kColl);
      mpi::Request reqs[2];
      reqs[0] = env.irecv(&ring, 1, mpi::Dt::Double, src, 7, w);
      reqs[1] = env.isend(&vr, 1, mpi::Dt::Double, (me + kTile) % p, 7, w);
      env.waitall(reqs, 2);
    }
    if (ring != in.ring(src, it)) ++bad;
    {
      Span s(env, kColl);
      env.barrier(w);
    }
  }
  const sim::Time end = env.now();
  {
    Span s(env, kSync);
    env.win_sync(win);
  }
  const auto* seg = static_cast<const double*>(base);
  for (int o = 0; o < tn; ++o) {
    const int d = (tr - o + tn) % tn;  // origin o targets o + d
    const bool hit = d >= 1 && d <= kDegree;
    double want_acc = 0, want_put = 0;
    if (hit) {
      for (int it = 0; it < kXlIters; ++it) want_acc += in.acc(tile0 + o, it);
      want_put = in.put(tile0 + o, kXlIters - 1);
    }
    if (seg[o] != want_acc) ++bad;
    if (seg[tn + o] != want_put) ++bad;
  }
  bad = allreduce_sum(env, w, bad);
  {
    Span s(env, kSync);
    env.win_unlock_all(win);
  }
  {
    Span s(env, kWinFree);
    env.win_free(win);
  }
  if (me == 0) {
    sh.virt_us = sim::to_us(end - start) / kXlIters;
    sh.bad_values = bad;
  }
}

// --- kv_zipf ----------------------------------------------------------------
constexpr int kKvNodes = 4, kKvCores = 4, kKvGhosts = 1, kKvOpsPerClient = 8000;

kv::TrafficConfig kv_traffic(std::uint64_t seed) {
  kv::TrafficConfig tc;
  tc.nkeys = 256;
  tc.zipf_s = 0.99;
  tc.read_pct = 75;
  tc.rmw_pct = 0;
  tc.ops_per_client = kKvOpsPerClient;
  tc.think_mean = sim::us(4);
  tc.seed = seed;
  return tc;
}

/// FAO ticket locks, not CAS spin locks: LinearChecker cannot decide the
/// hot-key histories that CAS spinning with exponential backoff produces at
/// this size (perfbench/NOTES.md, known limits). 48 buckets x 4 ways is the
/// smallest table near 32 x 4 in which no bucket of this key hash receives
/// more than 4 of the 256 keys, so no PUT is refused for overflow.
kv::KvConfig kv_config() {
  kv::KvConfig kc;
  kc.nbuckets = 48;
  kc.assoc = 4;
  kc.lock = kv::KvConfig::LockKind::FaoTicket;
  return kc;
}

/// kv::run_ops with each store call and think time attributed.
void kv_main(mpi::Env& env, const std::vector<kv::KvOp>& ops,
             check::LinearChecker& checker, Shared& sh) {
  mpi::Comm w = env.world();
  const int me = env.rank(w);
  kv::KvStore store(env, kv_config(), w);
  store.set_sink(&checker);
  {
    Span s(env, kKvOpen);
    store.open();
  }
  mark_setup_done(env, sh);
  {
    Span s(env, kColl);
    env.barrier(w);
  }
  const sim::Time t0 = env.now();
  {
    Span s(env, kLoop);  // the start stagger of kv::run_ops
    env.compute(static_cast<sim::Time>(me + 1) * sim::ns(1637));
  }
  for (const kv::KvOp& op : ops) {
    if (op.client != me) continue;
    {
      Span s(env, kLoop);
      env.compute(op.think);
    }
    Span s(env, kKvOp);
    if (op.kind == 0) {
      store.get(op.key);
    } else {
      store.put(op.key, op.val);
    }
  }
  {
    Span s(env, kColl);
    env.barrier(w);
  }
  const sim::Time t1 = env.now();
  {
    Span s(env, kKvClose);
    store.close();
  }
  if (me == 0) {
    sh.virt_us = sim::to_us(t1 - t0);
    sh.kv_stats = store.global_stats();
    sh.kv_acc_ops = store.acc_total(0);
    sh.kv_fingerprint = store.fingerprint();
  }
}

// ---------------------------------------------------------------------------
// One run.

struct Out {
  std::vector<std::string> failures;
  std::uint64_t app_ops = 0;
  double virt_us = 0;
  double wall_s = 0, setup_s = 0, sim_ops_per_s = 0, peak_rss_mb = 0;
  std::vector<std::pair<std::string, std::uint64_t>> counts;
  std::vector<std::pair<std::string, double>> layers;
  std::vector<std::vector<double>> shard_layers;  // [shard][cat] seconds
};

void fail(Out& o, const std::string& why) { o.failures.push_back(why); }

double secs(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

Out run(const std::string& workload, std::uint64_t seed, bool traced) {
  Out out;
  mpi::RunConfig rc;
  rc.machine.profile = net::cray_xc30_regular();
  rc.seed = seed;
  mpi::LayerFactory layer;
  core::Config cc;
  bool casper_mode = false;
  std::function<void(mpi::Env&)> body;
  Shared sh;
  check::LinearChecker checker;
  check::ShadowOracle oracle;
  bool with_checkers = false;

  // Inputs are generated before the clock starts.
  A2aInputs a2a;
  XlInputs xl;
  std::vector<kv::KvOp> kv_ops;
  if (workload == "a2a_casper") {
    rc.machine.topo.nodes = kA2aNodes;
    rc.machine.topo.cores_per_node = kA2aUsers + kA2aGhosts;
    cc.ghosts_per_node = kA2aGhosts;
    cc.binding = core::Binding::Rank;
    casper_mode = true;
    a2a = a2a_inputs(seed);
    const int p = kA2aNodes * kA2aUsers;
    out.app_ops = static_cast<std::uint64_t>(p) * (p - 1) * kA2aRounds;
    body = [&](mpi::Env& env) { a2a_main(env, a2a, sh); };
  } else if (workload == "xl_tiles") {
    rc.machine.topo.nodes = kXlNodes;
    rc.machine.topo.cores_per_node = kXlCpn;
    rc.shards = kXlShards;
    xl.seed = seed;
    out.app_ops = static_cast<std::uint64_t>(kXlNodes) * kXlCpn * kDegree *
                  (1 + kBurst) * kXlIters;
    body = [&](mpi::Env& env) { xl_main(env, xl, sh); };
  } else if (workload == "kv_zipf") {
    rc.machine.topo.nodes = kKvNodes;
    rc.machine.topo.cores_per_node = kKvCores;
    cc.ghosts_per_node = kKvGhosts;
    casper_mode = true;
    with_checkers = true;
    const int clients = kKvNodes * (kKvCores - kKvGhosts);
    kv_ops = kv::make_ops(kv_traffic(seed), clients);
    out.app_ops = kv_ops.size();
    body = [&](mpi::Env& env) { kv_main(env, kv_ops, checker, sh); };
  } else {
    std::fprintf(stderr, "casper_perf: unknown workload '%s'\n",
                 workload.c_str());
    std::exit(2);
  }
  if (casper_mode) layer = core::layer(cc);

  const int nranks =
      rc.machine.topo.nodes * rc.machine.topo.cores_per_node;
  sh.setup_done_ns.assign(static_cast<std::size_t>(nranks), 0);
  sh.setup_rss_mb.assign(static_cast<std::size_t>(nranks), 0);

  // Small per-entity trace rings: every record is still made (and counted),
  // but 2048 ranks x 3 entity tracks at the default 32 Ki records each would
  // need gigabytes.
  obs::Recorder rec(kTraceRing);
  std::unique_ptr<Attribution> attr;
  std::unique_ptr<TimedObserver> timed_oracle;
  if (traced) rc.recorder = &rec;

  // The user main marks the rank as running application code, and as
  // finalizing after it returns.
  auto user_main = [&body](mpi::Env& env) {
    if (g_attr != nullptr) g_attr->enter(env.world_rank(), kApp);
    body(env);
    if (g_attr != nullptr) g_attr->enter(env.world_rank(), kBoot);
  };

  const std::int64_t t0 = now_ns();
  auto rt = std::make_unique<mpi::Runtime>(rc, user_main, layer);
  const std::int64_t t_ctor = now_ns();
  if (traced) {
    std::vector<Cat> cat(static_cast<std::size_t>(nranks), kBoot);
    if (casper_mode) {
      for (int r = 0; r < nranks; ++r) {
        if (core::is_ghost_rank(rc.machine.topo, cc, r)) {
          cat[static_cast<std::size_t>(r)] = kGhost;
        }
      }
    }
    attr = std::make_unique<Attribution>(rt->engine(), std::move(cat), &rec);
    rt->engine().set_sched_observer(attr.get());
    g_attr = attr.get();
  }
  if (with_checkers) {
    if (traced) {
      timed_oracle = std::make_unique<TimedObserver>(oracle);
      rt->add_observer(timed_oracle.get());
    } else {
      rt->add_observer(&oracle);
    }
  }
  if (attr) attr->start(now_ns());
  rt->run();
  const std::int64_t t_run = now_ns();
  if (attr) {
    attr->stop(t_run);
    g_attr = nullptr;
  }
  const std::uint64_t sw_ops = rt->stats().get("sw_ops");
  const std::uint64_t hw_ops = rt->stats().get("hw_ops");
  const std::uint64_t violations = rt->stats().get("atomicity_violations");
  rt.reset();
  const std::int64_t t_down = now_ns();

  // Output checks.
  std::int64_t t_lin = 0;
  if (with_checkers) {
    const std::int64_t a = now_ns();
    const bool lin_clean = checker.clean();
    t_lin = now_ns() - a;
    if (!lin_clean) {
      fail(out, "linearizability: " + checker.check().front().diag);
    }
    if (!oracle.clean()) fail(out, "shadow oracle diverged");
    if (oracle.validations() == 0) fail(out, "shadow oracle never validated");
    const kv::KvStats& ks = sh.kv_stats;
    if (ks.ops() != out.app_ops) fail(out, "kv op count");
    if (sh.kv_acc_ops != ks.ops()) fail(out, "kv server op counters");
    if (ks.overflows != 0) {
      fail(out, std::to_string(ks.overflows) + " puts refused: bucket full");
    }
    if (ks.unlock_mismatch != 0) fail(out, "kv unlock ownership");
    if (checker.ops_recorded() != out.app_ops) fail(out, "kv history size");
  }
  if (violations != 0) fail(out, "atomicity violations");
  if (sh.bad_values != 0) {
    fail(out, std::to_string(sh.bad_values) + " wrong window/message values");
  }
  if (!(sh.virt_us > 0)) fail(out, "no virtual-time result");
  const std::int64_t t_end = now_ns();

  std::int64_t setup_end = 0;
  double setup_rss = 0;
  for (std::size_t r = 0; r < sh.setup_done_ns.size(); ++r) {
    setup_end = std::max(setup_end, sh.setup_done_ns[r]);
    setup_rss = std::max(setup_rss, sh.setup_rss_mb[r]);
  }
  if (setup_end == 0) fail(out, "setup never completed");

  out.virt_us = sh.virt_us;
  out.wall_s = secs(t_end - t0);
  out.setup_s = secs(setup_end - t0);
  out.sim_ops_per_s =
      static_cast<double>(out.app_ops) / secs(t_run - setup_end);
  out.peak_rss_mb = peak_rss_mb();

  out.counts = {{"mpi.sw_ops", sw_ops},
                {"mpi.hw_ops", hw_ops},
                {"mpi.atomicity_violations", violations},
                {"app.bad_values", sh.bad_values}};
  if (with_checkers) {
    const kv::KvStats& ks = sh.kv_stats;
    out.counts.insert(
        out.counts.end(),
        {{"kv.lock_acquires", ks.lock_acquires},
         {"kv.lock_retries", ks.lock_retries},
         {"kv.hits", ks.hits},
         {"kv.fingerprint", sh.kv_fingerprint},
         {"check.linear_ops_checked", checker.ops_recorded()},
         {"check.linear_history_hash", checker.history_hash()},
         {"check.oracle_validations", oracle.validations()}});
  }
  if (!traced) return out;

  // Per-layer numbers of the traced run.
  const int nsh = static_cast<int>(attr->shards().size());
  double cat_s[kNumCats] = {};
  std::uint64_t decisions = 0, resumes = 0, events = 0, windows = 0;
  for (const Attribution::Shard& s : attr->shards()) {
    std::vector<double> row;
    for (int c = 0; c < kNumCats; ++c) {
      cat_s[c] += secs(s.ns[c]);
      row.push_back(secs(s.ns[c]));
    }
    out.shard_layers.push_back(row);
    decisions += s.decisions;
    resumes += s.resumes;
    events += s.events;
    windows += s.windows;
  }
  const double run_s = secs(t_run - t_ctor);
  const double lib_s =
      cat_s[kIssue] + cat_s[kSync] + cat_s[kColl] + cat_s[kEvent];
  const auto& m = rec.metrics();
  const std::uint64_t hit = m.counter_value("casper.plan_cache_hit");
  const std::uint64_t miss = m.counter_value("casper.plan_cache_miss");
  const std::uint64_t acq = sh.kv_stats.lock_acquires;
  const std::uint64_t retr = sh.kv_stats.lock_retries;
  // Claimed time: construction, every layer of every shard (averaged over
  // the shard threads, which all span run()), teardown and the checks.
  double claimed_run = 0;
  for (int c = 1; c < kNumCats; ++c) claimed_run += cat_s[c];
  claimed_run /= nsh;
  const double claimed =
      secs(t_ctor - t0) + claimed_run + secs(t_down - t_run) + secs(t_lin);

  auto ratio = [](std::uint64_t a, std::uint64_t base) {
    return base == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(base);
  };
  out.layers = {
      {"sim.decisions", static_cast<double>(decisions)},
      {"sim.rank_resumes", static_cast<double>(resumes)},
      {"sim.event_callbacks", static_cast<double>(events)},
      {"sim.ns_per_decision",
       ratio(static_cast<std::uint64_t>(run_s * nsh * 1e9), decisions)},
      {"sim.window_crossings", static_cast<double>(windows)},
      {"mpi.init_host_s", secs(t_ctor - t0)},
      {"mpi.teardown_host_s", secs(t_down - t_run)},
      {"mpi.sw_ops", static_cast<double>(sw_ops)},
      {"mpi.hw_ops", static_cast<double>(hw_ops)},
      {"mpi.ns_per_op", lib_s * 1e9 / static_cast<double>(out.app_ops)},
      {"core.rss_after_setup_mb", setup_rss},
      {"core.redirected_ops",
       static_cast<double>(m.counter_value("casper.redirected_ops"))},
      {"core.plan_cache_hit", static_cast<double>(hit)},
      {"core.plan_cache_miss", static_cast<double>(miss)},
      {"core.plan_cache_lookups", static_cast<double>(hit + miss)},
      {"core.plan_cache_hit_ratio", ratio(hit, hit + miss)},
      {"check.linear_host_s", secs(t_lin)},
      {"check.linear_ops_checked",
       with_checkers ? static_cast<double>(checker.ops_recorded()) : 0.0},
      {"check.oracle_validations",
       with_checkers ? static_cast<double>(oracle.validations()) : 0.0},
      {"kv.lock_acquires", static_cast<double>(acq)},
      {"kv.lock_retries", static_cast<double>(retr)},
      {"kv.lock_attempts", static_cast<double>(acq + retr)},
      {"kv.lock_success_ratio", ratio(acq, acq + retr)},
      {"obs.trace_records", static_cast<double>(rec.trace().recorded())},
      {"obs.trace_dropped", static_cast<double>(rec.trace().dropped())},
      {"obs.unattributed_share", 1.0 - claimed / out.wall_s},
  };
  for (int c = 0; c < kNumCats; ++c) {
    out.layers.emplace_back(kCatMetric[c], cat_s[c]);
  }
  return out;
}

void print_json(const std::string& workload, std::uint64_t seed, bool traced,
                const Out& o) {
  std::printf("{\"workload\": \"%s\", \"seed\": %" PRIu64
              ", \"traced\": %s, \"ok\": %s, \"failures\": [",
              workload.c_str(), seed, traced ? "true" : "false",
              o.failures.empty() ? "true" : "false");
  for (std::size_t i = 0; i < o.failures.size(); ++i) {
    std::string f;
    for (char ch : o.failures[i]) {
      if (ch == '"' || ch == '\\') f += '\\';
      f += (ch == '\n' || ch == '\t') ? ' ' : ch;
    }
    std::printf("%s\"%s\"", i ? ", " : "", f.c_str());
  }
  std::printf("], \"app_ops\": %" PRIu64
              ", \"virt_time_us\": %.17g, \"wall_s\": %.9g, \"setup_s\": "
              "%.9g, \"sim_ops_per_s\": %.9g, \"peak_rss_mb\": %.6f, "
              "\"counts\": {",
              o.app_ops, o.virt_us, o.wall_s, o.setup_s, o.sim_ops_per_s,
              o.peak_rss_mb);
  for (std::size_t i = 0; i < o.counts.size(); ++i) {
    std::printf("%s\"%s\": %" PRIu64, i ? ", " : "", o.counts[i].first.c_str(),
                o.counts[i].second);
  }
  std::printf("}, \"layers\": {");
  for (std::size_t i = 0; i < o.layers.size(); ++i) {
    std::printf("%s\"%s\": %.17g", i ? ", " : "", o.layers[i].first.c_str(),
                o.layers[i].second);
  }
  std::printf("}, \"shard_layers\": [");
  for (std::size_t s = 0; s < o.shard_layers.size(); ++s) {
    std::printf("%s{", s ? ", " : "");
    for (int c = 0; c < kNumCats; ++c) {
      std::printf("%s\"%s\": %.9g", c ? ", " : "", kCatMetric[c],
                  o.shard_layers[s][static_cast<std::size_t>(c)]);
    }
    std::printf("}");
  }
  std::printf("]}\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 0;
  bool have_seed = false, traced = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--workload") == 0 && i + 1 < argc) {
      workload = argv[++i];
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      char* end = nullptr;
      seed = std::strtoull(argv[++i], &end, 10);
      have_seed = end != nullptr && *end == '\0';
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      traced = true;
    } else {
      std::fprintf(stderr,
                   "usage: casper_perf --workload NAME --seed N [--trace]\n");
      return 2;
    }
  }
  if (workload.empty() || !have_seed) {
    std::fprintf(stderr,
                 "usage: casper_perf --workload NAME --seed N [--trace]\n");
    return 2;
  }
  const Out o = run(workload, seed, traced);
  print_json(workload, seed, traced, o);
  return o.failures.empty() ? 0 : 1;
}
