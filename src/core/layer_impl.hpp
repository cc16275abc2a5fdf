// CasperLayer: the interception layer implementing the paper's design.
// Internal header (exposed for white-box tests).
#pragma once

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "core/casper.hpp"
#include "mpi/layer.hpp"
#include "mpi/pmpi.hpp"
#include "mpi/runtime.hpp"

namespace casper::core {

/// Reserved tags for Casper-internal messages on the underlying world.
inline constexpr int kTagCmd = 901001;
inline constexpr int kTagPscwPost = 901002;
inline constexpr int kTagPscwComplete = 901003;

/// Epoch-type mask parsed from the `epochs_used` info hint.
enum EpochMask : unsigned {
  kEpochFence = 1u << 0,
  kEpochPscw = 1u << 1,
  kEpochLock = 1u << 2,
  kEpochLockAll = 1u << 3,
  kEpochAll = 0xF,
};
unsigned parse_epochs(const mpi::Info& info);

/// Command sent from a node's user master to the node's ghosts so they can
/// mirror the user processes' collective window operations.
struct GhostCmd {
  enum Code : int { kWinAlloc = 1, kWinFree = 2, kFinalize = 3 };
  int code = 0;
  unsigned epochs = kEpochAll;
  long long disp_unit = 1;
  /// Window sequence number: user processes allocate windows in the same
  /// collective order on every rank, so a per-rank allocation counter
  /// identifies the window; win-free commands name the window to tear down
  /// (frees may happen in any order).
  int seq = 0;
};

class CasperLayer final : public mpi::Layer {
 public:
  CasperLayer(mpi::Runtime& rt, Config cfg);

  // ---- mpi::Layer --------------------------------------------------------
  void on_rank_start(mpi::Env& env,
                     const std::function<void(mpi::Env&)>& user_main) override;
  mpi::Comm comm_world(mpi::Env& env) override;
  mpi::Comm comm_split(mpi::Env& env, const mpi::Comm& c, int color,
                       int key) override;
  mpi::Comm comm_dup(mpi::Env& env, const mpi::Comm& c) override;
  void send(mpi::Env& env, const void* buf, int count, mpi::Dt dt, int dest,
            int tag, const mpi::Comm& c) override;
  mpi::Status recv(mpi::Env& env, void* buf, int count, mpi::Dt dt, int src,
                   int tag, const mpi::Comm& c) override;
  mpi::Request isend(mpi::Env& env, const void* buf, int count, mpi::Dt dt,
                     int dest, int tag, const mpi::Comm& c) override;
  mpi::Request irecv(mpi::Env& env, void* buf, int count, mpi::Dt dt, int src,
                     int tag, const mpi::Comm& c) override;
  mpi::Status wait(mpi::Env& env, const mpi::Request& req) override;
  bool test(mpi::Env& env, const mpi::Request& req) override;
  void waitall(mpi::Env& env, mpi::Request* reqs, int n) override;
  void barrier(mpi::Env& env, const mpi::Comm& c) override;
  void bcast(mpi::Env& env, void* buf, int count, mpi::Dt dt, int root,
             const mpi::Comm& c) override;
  void reduce(mpi::Env& env, const void* s, void* r, int count, mpi::Dt dt,
              mpi::AccOp op, int root, const mpi::Comm& c) override;
  void allreduce(mpi::Env& env, const void* s, void* r, int count, mpi::Dt dt,
                 mpi::AccOp op, const mpi::Comm& c) override;
  void allgather(mpi::Env& env, const void* s, int count, mpi::Dt dt, void* r,
                 const mpi::Comm& c) override;
  void alltoall(mpi::Env& env, const void* s, int count, mpi::Dt dt, void* r,
                const mpi::Comm& c) override;
  void gather(mpi::Env& env, const void* s, int count, mpi::Dt dt, void* r,
              int root, const mpi::Comm& c) override;
  void scatter(mpi::Env& env, const void* s, int count, mpi::Dt dt, void* r,
               int root, const mpi::Comm& c) override;

  mpi::Win win_allocate(mpi::Env& env, std::size_t bytes, std::size_t du,
                        const mpi::Info& info, const mpi::Comm& c,
                        void** base) override;
  mpi::Win win_allocate_shared(mpi::Env& env, std::size_t bytes,
                               std::size_t du, const mpi::Info& info,
                               const mpi::Comm& c, void** base) override;
  mpi::Win win_create(mpi::Env& env, void* base, std::size_t bytes,
                      std::size_t du, const mpi::Info& info,
                      const mpi::Comm& c) override;
  void win_free(mpi::Env& env, mpi::Win& w) override;

  void rma(mpi::Env& env, const mpi::RmaArgs& a, const mpi::Win& w) override;

  void win_fence(mpi::Env& env, unsigned mode_assert,
                 const mpi::Win& w) override;
  void win_post(mpi::Env& env, const mpi::Group& g, unsigned mode_assert,
                const mpi::Win& w) override;
  void win_start(mpi::Env& env, const mpi::Group& g, unsigned mode_assert,
                 const mpi::Win& w) override;
  void win_complete(mpi::Env& env, const mpi::Win& w) override;
  void win_wait(mpi::Env& env, const mpi::Win& w) override;
  void win_lock(mpi::Env& env, mpi::LockType type, int target,
                unsigned mode_assert, const mpi::Win& w) override;
  void win_unlock(mpi::Env& env, int target, const mpi::Win& w) override;
  void win_lock_all(mpi::Env& env, unsigned mode_assert,
                    const mpi::Win& w) override;
  void win_unlock_all(mpi::Env& env, const mpi::Win& w) override;
  void win_flush(mpi::Env& env, int target, const mpi::Win& w) override;
  void win_flush_all(mpi::Env& env, const mpi::Win& w) override;
  void win_flush_local(mpi::Env& env, int target, const mpi::Win& w) override;
  void win_flush_local_all(mpi::Env& env, const mpi::Win& w) override;
  void win_sync(mpi::Env& env, const mpi::Win& w) override;

  // ---- introspection for tests & benches ---------------------------------
  const mpi::Comm& user_world() const { return user_world_; }
  bool ghost_rank(int world_rank) const {
    return is_ghost_[static_cast<std::size_t>(world_rank)];
  }
  /// World rank of the ghost statically bound to a user rank of a window.
  int bound_ghost_of(const mpi::Win& user_win, int user_rank);
  /// Number of internal windows Casper created for a managed user window
  /// (overlapping lock windows + the fence/pscw/lockall window), for the
  /// Fig. 3(a) hint analysis.
  int internal_window_count(const mpi::Win& user_win);
  const Config& config() const { return cfg_; }

  /// Per-ghost redirection load for a managed window, summed over all
  /// origins: how many operations / bytes each ghost was sent (the
  /// observability real Casper exposes via CSP_VERBOSE; lets applications
  /// and tests see binding-policy balance).
  struct GhostLoad {
    int ghost_world = -1;
    std::uint64_t ops = 0;
    std::uint64_t bytes = 0;
  };
  std::vector<GhostLoad> ghost_load(const mpi::Win& user_win);

  /// Adaptive-controller introspection (tests & benches; adaptive runs
  /// only): the decision digest, current item→slot map and effective
  /// dynamic policy of origin 0's replica (all origins agree by
  /// construction), and one origin's plan-cache generation (to observe the
  /// invalidation a rebind performs).
  std::uint64_t adapt_digest(const mpi::Win& user_win);
  std::vector<int> adapt_map(const mpi::Win& user_win);
  int adapt_policy(const mpi::Win& user_win);
  std::uint64_t plan_generation(const mpi::Win& user_win, int origin);

  /// Window-state registry introspection (tests): the shared state a user
  /// handle resolves to, the one registered under an allocation sequence
  /// number (what a ghost resolves to; null once freed), the number of
  /// windows registered by user handle, and the length of an origin's
  /// per-ghost counters.
  const void* window_state(const mpi::Win& user_win);
  const void* window_state_of_seq(int seq);
  std::size_t windows_by_handle();
  std::size_t ghost_counter_slots(const mpi::Win& user_win, int origin);

 private:
  /// One rank's segment in its node buffer, as exchanged at window build.
  struct Place {
    unsigned long long offset;
    unsigned long long size;
  };

  /// Per-user-target placement of window memory.
  struct TargetInfo {
    int node = 0;
    std::size_t offset = 0;  ///< byte offset of the segment in node buffer
    std::size_t size = 0;
    std::size_t disp_unit = 1;
    int local_idx = 0;  ///< index among node-local users (ug_win index)
  };

  /// Per-(origin, target) passive-epoch state.
  struct OriginTargetEp {
    bool locked = false;
    mpi::LockType type = mpi::LockType::Shared;
    unsigned mode_assert = 0;
    /// Static-binding-free: set after a flush completes under the lock
    /// (paper III.B.3); enables dynamic binding of PUT/GET.
    bool binding_free = false;
    /// Degraded mode: this origin lazily acquired a lock on the *user*
    /// window for this target because the target node lost all its ghosts
    /// (ops go direct, original-MPI style). Released at unlock time.
    bool user_locked = false;
    /// Accumulate-class ops issued to this target and not yet completed by
    /// a flush/unlock/fence (adaptive runs only): any nonzero count vetoes
    /// a segment remap, which must not move a byte's serializing ghost
    /// while an RMW is in flight.
    std::uint32_t unflushed_acc = 0;
  };

  /// One piece of a (possibly split) redirected operation.
  struct SubOp {
    int ghost = -1;          ///< ghost world rank (target in internal wins)
    std::size_t tdisp = 0;   ///< byte displacement in the ghost's frame
    int tcount = 0;
    mpi::Datatype tdt;
    std::size_t payload_off = 0;  ///< offset into packed origin data
  };

  /// Memoized resolve output: applications re-issue the same op shape
  /// (target, displacement, count, datatype) every iteration, and the
  /// byte→ghost split is pure in that key while the binding stands. Open
  /// addressing over a fixed power-of-two slot array with bounded linear
  /// probing; entries from an older generation are stale and overwritten in
  /// place (their SubOp vectors are reused, so a warm cache allocates
  /// nothing). Lives per origin so hit/miss counts depend only on that
  /// origin's own call sequence, never on rank interleaving.
  struct PlanEntry {
    std::uint64_t gen = 0;  ///< 0 = empty; valid iff == PlanCache::gen
    int target = -1;
    std::size_t disp_bytes = 0;
    int tcount = 0;
    mpi::Datatype tdt;
    std::vector<SubOp> subs;
  };
  struct PlanCache {
    static constexpr std::size_t kSlots = 64;  // power of two
    static constexpr std::size_t kProbe = 4;   // bounded displacement
    std::uint64_t gen = 1;  ///< bump to invalidate (lock/epoch transitions)
    std::vector<PlanEntry> slots;  // sized kSlots at window build
  };

  /// Per-origin epoch state on one Casper window.
  struct OriginEp {
    std::vector<OriginTargetEp> tl;  // per target user rank
    bool lockall = false;
    bool fence_open = false;
    std::vector<int> access_group;    // user comm ranks (PSCW)
    std::vector<int> exposure_group;  // user comm ranks (PSCW)
    /// Bitset mirror of access_group, indexed by user comm rank: the
    /// per-op epoch check must not scan the group vector.
    std::vector<std::uint64_t> access_mask;
    std::vector<std::uint64_t> ops_to_ghost;    // by ghost_slot()
    std::vector<std::uint64_t> bytes_to_ghost;  // by ghost_slot()
    std::uint64_t rr = 0;  ///< round-robin cursor for the "random" policy
    PlanCache plans;       ///< memoized static-binding splits (this origin)
    /// Adaptive progress control (cfg.adaptive.enabled only; see
    /// layer_adapt.cpp and DESIGN.md §15). `adapt` is this origin's replica
    /// of the controller state — every origin computes the same values from
    /// the same sealed board, so no replica is authoritative. `adapt_acc`
    /// accumulates this origin's round counters privately at issue time;
    /// only adapt_seal() publishes them to the shared board (pre-barrier),
    /// keeping issue-path writes out of other origins' post-barrier reads.
    progress::AdaptState adapt;
    progress::AdaptSample adapt_acc;
  };

  /// All internal state Casper keeps for one user window. Built once, by the
  /// first member rank through build_windows, and shared by every member
  /// rank, users and ghosts alike (the one-translation-table-per-team
  /// pattern); only the node shared-memory windows differ per node, so they
  /// are kept per node.
  struct CspWin {
    mpi::Win user_win;  ///< handle returned to the application
    std::vector<mpi::Win> shm_by_node;  ///< node shared-memory windows
    std::vector<mpi::Win> ug_wins;  ///< per local-user-index, over world
    mpi::Win global_win;            ///< fence/pscw/lockall window, over world
    unsigned epochs = kEpochAll;
    std::vector<TargetInfo> tgt;  // per user comm rank
    std::vector<OriginEp> ep;     // per user comm rank
    int seq = 0;  ///< allocation sequence number (seq_wins_ key)
    /// The one binding table (paper III.B.1/2): every target byte belongs
    /// to exactly one item, and every item maps to one ghost slot (an index
    /// into node_ghosts_) of its node. Rank binding has one item per
    /// node-local user; segment binding one per 16B-aligned ghost chunk,
    /// split into `adaptive.subchunks` items when the controller is on.
    /// Static runs route by `map`; adaptive runs by each origin's replica
    /// (OriginEp::adapt.map), seeded from it.
    struct BindTable {
      std::vector<progress::AdaptNode> nodes;  ///< item layout per node
      std::vector<std::size_t> item_bytes;     ///< per node (segment)
      std::vector<int> map;                    ///< item -> ghost slot
      /// The item of a rank-bound target.
      std::size_t rank_item(const TargetInfo& ti) const {
        return static_cast<std::size_t>(
            nodes[static_cast<std::size_t>(ti.node)].first + ti.local_idx);
      }
    };
    BindTable bind;
    /// Fence-epoch degradation is latched *collectively*: at every fence all
    /// ranks allreduce the death sequence they observed, so every rank takes
    /// the direct-to-user-window route for the same epochs.
    std::uint64_t fence_latch = 0;
    /// Set once fence epochs on this window also fence the user window
    /// (degraded direct ops need a real epoch there).
    bool fence_user_open = false;
    /// Adaptive-controller shared state (allocated only when enabled).
    /// `board` is double-buffered by round parity: the seal at round r+2
    /// reuses the buffer decide-read at round r, and cannot overlap those
    /// reads because barrier r+1 interposes (no origin passes it before
    /// every origin finished decide r). Each origin writes only its own
    /// slot, pre-barrier; all slots are read post-barrier — the barrier's
    /// message chain is the cross-shard happens-before.
    struct AdaptShared {
      bool on = false;
      std::vector<progress::AdaptSample> board[2];  ///< [parity][origin]
    };
    AdaptShared adapt;
  };

  // --- setup / ghosts ------------------------------------------------------
  void setup_topology();
  void setup_comms(mpi::Env& env);
  void ghost_loop(mpi::Env& env);
  void user_finalize(mpi::Env& env);
  /// Node user-masters send `cmd` to their node's ghosts.
  void notify_ghosts(mpi::Env& env, const GhostCmd& cmd);
  /// Collective (over ALL world ranks) creation of the internal windows of
  /// window `seq`. The first member to finish builds the window's CspWin and
  /// registers it in seq_wins_; every later member attaches to it.
  std::shared_ptr<CspWin> build_windows(mpi::Env& env, std::size_t bytes,
                                        std::size_t du, unsigned epochs,
                                        const mpi::Info& info, int seq);
  /// The placement and per-origin state of a new window (pure: depends only
  /// on the allgathered placements and the window's parameters).
  std::shared_ptr<CspWin> make_window_state(const std::vector<Place>& places,
                                            std::size_t du, unsigned epochs,
                                            int seq) const;
  void free_internal_windows(mpi::Env& env, CspWin& cw);

  // --- redirection ---------------------------------------------------------
  CspWin* managed(const mpi::Win& w);
  CspWin& managed_checked(const mpi::Win& w, const char* who);
  int my_user_rank(mpi::Env& env) const;
  /// The internal window carrying operations to user target `u` under the
  /// currently active epoch of `origin`.
  mpi::Win& route_window(CspWin& cw, int origin, int target);
  /// Static binding: split an op from user `origin` on user `target` into
  /// sub-ops along the item→slot `map` (the window's shared map, or the
  /// origin's adaptive replica). `origin` only matters under the flip
  /// fault, which deliberately makes the segment routing origin-dependent.
  void resolve(const CspWin& cw, const std::vector<int>& map, int origin,
               int target, std::size_t disp_bytes, int tcount,
               const mpi::Datatype& tdt, std::vector<SubOp>& out) const;
  /// Segment binding's one split walk: calls f(item, lo, len) for each
  /// piece of the node-buffer byte range [lo, lo + len) that lies in one
  /// item, in address order (once, with len 0, for an empty range).
  template <class F>
  static void walk_items(const CspWin::BindTable& bt, int node, std::size_t lo,
                         std::size_t len, F&& f) {
    const auto& nd = bt.nodes[static_cast<std::size_t>(node)];
    const std::size_t ib = bt.item_bytes[static_cast<std::size_t>(node)];
    const std::size_t last = static_cast<std::size_t>(nd.count - 1);
    while (true) {
      const std::size_t ci = std::min(lo / ib, last);
      const std::size_t take =
          ci == last ? len : std::min(len, (ci + 1) * ib - lo);
      f(static_cast<std::size_t>(nd.first) + ci, lo, take);
      len -= take;
      if (len == 0) return;
      lo += take;
    }
  }
  /// Issue-time death fallback for segment items and adaptive replicas,
  /// whose slots are never rebound: the ghost world rank of `slot` on
  /// `node` or, once that ghost is dead and the node has survivors,
  /// alive[slot % |alive|]. Pure in global death state, so every origin
  /// routes a shared byte to the same survivor; with no survivor the dead
  /// ghost is kept and the runtime completes its deliveries at the NIC.
  int ghost_of(int node, int slot) const;
  /// Cached resolve: returns the split plan for the key, computing it
  /// on miss. The reference stays valid until the next plan_lookup by the
  /// SAME origin (other origins use their own caches), which cannot happen
  /// inside one rma() call.
  const std::vector<SubOp>& plan_lookup(CspWin& cw, OriginEp& ep, int origin,
                                        int target, std::size_t disp_bytes,
                                        int tcount, const mpi::Datatype& tdt);
  /// Dynamic binding ghost choice (paper III.B.3), PUT/GET only.
  int choose_dynamic_ghost(mpi::Env& env, CspWin& cw, int origin, int node);
  bool dynamic_applicable(const CspWin& cw, int origin, int target,
                          mpi::OpKind kind) const;
  /// Direct local execution of a self-targeted PUT or GET (never delayed).
  void exec_self(mpi::Env& env, const mpi::RmaArgs& a, std::size_t disp_bytes,
                 CspWin& cw);

  // --- adaptive progress control (layer_adapt.cpp) -------------------------
  /// Size the board and seed every origin's replica from the window's
  /// binding table, so adaptive routing equals static until a remap.
  void init_adapt(CspWin& cw) const;
  /// Issue-time attribution of one routed (sub)op's demand to its binding
  /// item, into the origin's PRIVATE accumulators.
  void adapt_note(CspWin& cw, OriginEp& ep, const TargetInfo& ti,
                  std::size_t node_off, std::size_t nbytes);
  /// Publish this origin's round counters to the sealed board (pre-barrier)
  /// and reset the private accumulators.
  void adapt_seal(CspWin& cw, int me_u);
  /// Replay the pure decision over the sealed board (post-barrier): every
  /// origin updates its own replica identically; a remap bumps the plan
  /// generation; origin 0 emits the adapt.* counters and lb.adapt instant.
  void adapt_decide(mpi::Env& env, CspWin& cw, int me_u);
  /// Barrier override body for adaptive runs: seal every managed window,
  /// barrier, decide every managed window.
  void adapt_barrier(mpi::Env& env, const mpi::Comm& c);
  /// Dynamic-binding policy in force: the controller's replica when
  /// adaptive, cfg.dynamic otherwise.
  DynamicLb effective_lb(const CspWin& cw, const OriginEp& ep) const;

  // --- ghost failure recovery (layer_fault.cpp) ----------------------------
  /// Register the runtime death handler and precompute successor forwarding
  /// for every planned ghost kill. No-op without kills in the FaultPlan.
  void setup_fault_recovery();
  /// Death-handler callback, one heartbeat after a kill (event context —
  /// pure state mutation, no MPI calls): removes the ghost from the alive
  /// sets, rebinds its targets onto survivors, invalidates cached plans, and
  /// flips the node into degraded (no-redirect) mode when it was the last.
  void on_ghost_death(int world_rank, sim::Time t);
  /// The sequential rank rule for one death: every rank item of `cw` on
  /// `node` bound to dead ghost `dead` moves to alive[local_idx % |alive|],
  /// `alive` being the node's survivors right after that death. Returns the
  /// items moved (0 under segment binding or with no survivor).
  std::uint64_t rebind_rank_items(CspWin& cw, int node, int dead,
                                  const std::vector<int>& alive) const;
  /// Apply every death detected so far to a window entering winmap_, in
  /// death order, exactly as on_ghost_death applied each one to the windows
  /// registered before it.
  void replay_deaths(CspWin& cw) const;
  /// True when fence-epoch ops on `cw` to targets on `node` must go direct
  /// to user memory: the node's total ghost loss was latched at a fence.
  bool fence_direct(const CspWin& cw, int node) const;
  /// Degraded direct issue on the user window (original-MPI mode), with the
  /// lazy user-window lock for passive epochs.
  void issue_degraded(mpi::Env& env, CspWin& cw, OriginEp& ep,
                      const mpi::RmaArgs& a);

  mpi::Runtime* rt_;
  Config cfg_;
  std::shared_ptr<mpi::Pmpi> pmpi_;

  /// Hot-path counter pointers into the runtime's registry replicas,
  /// resolved once at construction (map nodes are stable): per-op
  /// increments must not pay a string lookup. One block per engine shard;
  /// hot() picks the calling worker thread's. plan_hit/plan_miss are null
  /// without a recorder and are only bumped under obs::on.
  struct HotCounters {
    std::uint64_t* dynamic_ops = nullptr;
    std::uint64_t* split_subops = nullptr;
    std::uint64_t* self_ops = nullptr;
    std::uint64_t* plan_hit = nullptr;
    std::uint64_t* plan_miss = nullptr;
  };
  std::vector<HotCounters> hot_;
  HotCounters& hot() {
    return hot_[static_cast<std::size_t>(sim::Engine::current_shard())];
  }

  // topology-derived, computed once in the constructor
  std::vector<bool> is_ghost_;                 // by world rank
  /// By world rank: the user comm rank of a user (COMM_USER_WORLD keeps
  /// world order), the index among all ghosts of a ghost.
  std::vector<int> user_rank_of_;
  std::vector<int> ghost_slot_of_;
  int total_ghosts_ = 0;
  /// Index of ghost `g` (world rank) into the per-origin ghost counters.
  std::size_t ghost_slot(int g) const {
    return static_cast<std::size_t>(
        ghost_slot_of_[static_cast<std::size_t>(g)]);
  }
  std::vector<std::vector<int>> node_ghosts_;  // per node: ghost world ranks
  std::vector<std::vector<int>> node_users_;   // per node: user world ranks
  std::vector<int> node_master_;               // per node: first user rank
  int max_local_users_ = 0;

  // --- fault recovery state (inert unless the FaultPlan schedules kills) ---
  bool fault_recovery_ = false;
  bool any_ghost_dead_ = false;
  std::vector<std::vector<int>> alive_ghosts_;  // node_ghosts_ minus dead
  std::vector<char> ghost_dead_;                // by world rank
  std::vector<std::uint64_t> ghost_death_seq_;  // by world rank (0 = alive)
  std::vector<char> node_degraded_;             // per node: all ghosts dead
  std::uint64_t death_seq_ = 0;                 // detected deaths so far
  std::uint64_t* stat_rebound_ops_ = nullptr;   // ops issued via rebinding

  mpi::Comm user_world_;
  std::vector<mpi::Comm> node_comm_of_;  // per world rank: its node comm
  /// Managed windows by user handle (the users' lookup on every call).
  std::map<mpi::WinImpl*, std::shared_ptr<CspWin>> winmap_;
  /// Every live window's state by allocation sequence number: where a
  /// member attaches at build time and a ghost finds the window it is told
  /// to free. Entries leave when the window is freed.
  std::map<int, std::shared_ptr<CspWin>> seq_wins_;
  /// Guards winmap_, seq_wins_, the handles members record into a shared
  /// CspWin, and the one-time user_world_ publication when the engine is
  /// sharded: member ranks on different worker threads can allocate or free
  /// windows inside the same conservative window, so a find can otherwise
  /// race a concurrent insert. Never locked in single-shard runs. Held only
  /// around map/pointer accesses and the pure state build — NEVER across a
  /// pmpi_ call (those can switch fibers, and another fiber on the same
  /// worker thread relocking would deadlock).
  std::mutex winmap_mu_;
  /// winmap_mu_, locked only when the engine is sharded.
  std::unique_lock<std::mutex> registry_lock();
  /// Per-world-rank count of managed window allocations (sequence source).
  std::vector<int> alloc_seq_;
};

}  // namespace casper::core
