// CasperLayer: window allocation — the shared-memory mapping and the
// overlapping internal windows (paper II.B, Fig. 2), controlled by the
// `epochs_used` info hint (paper III.A).
#include <algorithm>

#include "core/layer_impl.hpp"
#include "mpi/check.hpp"

namespace casper::core {

using mpi::Comm;
using mpi::Env;
using mpi::Win;

namespace {
std::size_t align64(std::size_t v) { return (v + 63) & ~std::size_t{63}; }

/// Round up to the maximum basic datatype size (16 bytes), so a binding
/// boundary never splits a basic element (paper III.B.2).
std::size_t align16(std::size_t v) {
  return (v + mpi::kMaxBasicDtSize - 1) & ~(mpi::kMaxBasicDtSize - 1);
}

/// Bytes of a node's shared buffer: its users' segments, 64-byte aligned.
template <class Place>
std::size_t node_bytes(const std::vector<int>& users,
                       const std::vector<Place>& places) {
  std::size_t total = 0;
  for (int u : users) {
    total += align64(
        static_cast<std::size_t>(places[static_cast<std::size_t>(u)].size));
  }
  return total;
}
}  // namespace

std::unique_lock<std::mutex> CasperLayer::registry_lock() {
  std::unique_lock<std::mutex> lk(winmap_mu_, std::defer_lock);
  if (rt_->engine().sharded()) lk.lock();
  return lk;
}

CasperLayer::CspWin* CasperLayer::managed(const Win& w) {
  // Sharded, a lookup can race another rank's registration of a DIFFERENT
  // window inside the same conservative window (std::map insert invalidates
  // nothing, but concurrent find/insert is still a data race), so lookups
  // take the registry lock too. Uncontended in practice; never locked when
  // single-shard.
  auto lk = registry_lock();
  auto it = winmap_.find(w.get());
  return it == winmap_.end() ? nullptr : it->second.get();
}

CasperLayer::CspWin& CasperLayer::managed_checked(const Win& w,
                                                  const char* who) {
  auto* cw = managed(w);
  MMPI_REQUIRE(cw != nullptr, "casper: %s on an unmanaged window", who);
  return *cw;
}

int CasperLayer::my_user_rank(Env& env) const {
  return user_rank_of_[static_cast<std::size_t>(env.world_rank())];
}

Win CasperLayer::win_allocate(Env& env, std::size_t bytes, std::size_t du,
                              const mpi::Info& info, const Comm& c,
                              void** base) {
  // Casper manages windows allocated over COMM_USER_WORLD (the common case
  // and the paper's scope). Other communicators fall through to the MPI
  // implementation unmanaged: correct, but without asynchronous progress.
  if (c != user_world_) {
    ++rt_->stats().counter("casper_unmanaged_windows");
    return pmpi_->win_allocate(env, bytes, du, info, c, base);
  }
  const int me = env.world_rank();
  const unsigned epochs = parse_epochs(info);
  const int seq = alloc_seq_[static_cast<std::size_t>(me)]++;

  GhostCmd cmd;
  cmd.code = GhostCmd::kWinAlloc;
  cmd.epochs = epochs;
  cmd.disp_unit = static_cast<long long>(du);
  cmd.seq = seq;
  notify_ghosts(env, cmd);

  auto cw = build_windows(env, bytes, du, epochs, info, seq);

  // The user-visible window: a window over COMM_USER_WORLD exposing the same
  // shared segments. The application synchronizes and communicates on this
  // handle; Casper intercepts and redirects every call.
  const auto& ti = cw->tgt[static_cast<std::size_t>(my_user_rank(env))];
  const Win& shm =
      cw->shm_by_node[static_cast<std::size_t>(rt_->topo().node_of(me))];
  const Comm& nc = node_comm_of_[static_cast<std::size_t>(me)];
  std::byte* seg_base =
      rt_->p_shared_query(env, shm, nc->rank_of_world(me)).base;
  Win uw = pmpi_->win_create(env, seg_base, ti.size, du, info, user_world_);
  *base = seg_base;

  // Every member got the same handle back; the first one here records it.
  auto lk = registry_lock();
  if (cw->user_win == nullptr) {
    cw->user_win = uw;
    replay_deaths(*cw);
    winmap_[uw.get()] = cw;
    ++rt_->stats().counter("casper_managed_windows");
  }
  return uw;
}

std::shared_ptr<CasperLayer::CspWin> CasperLayer::make_window_state(
    const std::vector<Place>& places, std::size_t du, unsigned epochs,
    int seq) const {
  const auto& topo = rt_->topo();
  auto cw = std::make_shared<CspWin>();
  cw->epochs = epochs;
  cw->seq = seq;
  cw->shm_by_node.resize(static_cast<std::size_t>(topo.nodes));

  const auto users = static_cast<std::size_t>(topo.nranks() - total_ghosts_);
  cw->tgt.resize(users);
  cw->ep.resize(users);
  auto& bt = cw->bind;
  bt.nodes.resize(static_cast<std::size_t>(topo.nodes));
  bt.item_bytes.assign(static_cast<std::size_t>(topo.nodes), 0);
  const std::size_t sub = static_cast<std::size_t>(
      cfg_.adaptive.enabled ? std::max(1, cfg_.adaptive.subchunks) : 1);
  for (int node = 0; node < topo.nodes; ++node) {
    const auto& nu = node_users_[static_cast<std::size_t>(node)];
    const auto& ng = node_ghosts_[static_cast<std::size_t>(node)];
    const std::size_t g = ng.size();
    const int first = static_cast<int>(bt.map.size());
    if (cfg_.binding == Binding::Segment) {
      // Static segment binding: the node's buffer is divided into g
      // 16B-aligned chunks, chunk i owned by ghost slot i (paper III.B.2).
      // The controller moves `sub` pieces of a chunk independently; when
      // the piece size divides the chunk the seed routes byte-for-byte
      // like the whole chunks.
      std::size_t chunk = align16((node_bytes(nu, places) + g - 1) / g);
      if (chunk == 0) chunk = mpi::kMaxBasicDtSize;
      std::size_t ib = align16((chunk + sub - 1) / sub);
      if (ib == 0) ib = mpi::kMaxBasicDtSize;
      bt.item_bytes[static_cast<std::size_t>(node)] = ib;
      for (std::size_t i = 0; i < g * sub; ++i) {
        bt.map.push_back(static_cast<int>(std::min(i * ib / chunk, g - 1)));
      }
    }
    for (std::size_t li = 0; li < nu.size(); ++li) {
      const int w = nu[li];
      auto& ti = cw->tgt[static_cast<std::size_t>(
          user_rank_of_[static_cast<std::size_t>(w)])];
      ti.node = node;
      ti.offset =
          static_cast<std::size_t>(places[static_cast<std::size_t>(w)].offset);
      ti.size =
          static_cast<std::size_t>(places[static_cast<std::size_t>(w)].size);
      ti.disp_unit = du;
      ti.local_idx = static_cast<int>(li);
      if (cfg_.binding == Binding::Segment) continue;
      // Static rank binding with NUMA awareness: bind to a ghost in the
      // user's NUMA domain when one exists, round-robin inside the domain.
      std::vector<int> same_dom;
      if (cfg_.topology_aware && topo.numa_per_node > 1) {
        for (std::size_t s = 0; s < g; ++s) {
          if (topo.numa_of(ng[s]) == topo.numa_of(w)) {
            same_dom.push_back(static_cast<int>(s));
          }
        }
      }
      bt.map.push_back(same_dom.empty() ? static_cast<int>(li % g)
                                        : same_dom[li % same_dom.size()]);
    }
    bt.nodes[static_cast<std::size_t>(node)] = progress::AdaptNode{
        first, static_cast<int>(bt.map.size()) - first, static_cast<int>(g)};
  }
  for (auto& ep : cw->ep) {
    ep.tl.resize(users);
    ep.access_mask.assign((users + 63) / 64, 0);
    ep.ops_to_ghost.assign(static_cast<std::size_t>(total_ghosts_), 0);
    ep.bytes_to_ghost.assign(static_cast<std::size_t>(total_ghosts_), 0);
    ep.plans.slots.resize(PlanCache::kSlots);
  }
  // Adaptive progress control: size the board and seed every origin's
  // replica.
  if (cfg_.adaptive.enabled) init_adapt(*cw);
  return cw;
}

std::shared_ptr<CasperLayer::CspWin> CasperLayer::build_windows(
    Env& env, std::size_t bytes, std::size_t du, unsigned epochs,
    const mpi::Info& info, int seq) {
  const auto& topo = rt_->topo();
  const int me = env.world_rank();
  const int my_node = topo.node_of(me);
  const bool ghost = is_ghost_[static_cast<std::size_t>(me)];
  const Comm& nc = node_comm_of_[static_cast<std::size_t>(me)];

  // Step 1: allocate the node shared segment; ghosts contribute zero bytes
  // but get the whole node buffer mapped into their "address space".
  void* shm_base = nullptr;
  Win shm_win = pmpi_->win_allocate_shared(env, ghost ? 0 : bytes, 1, info,
                                           nc, &shm_base);
  const std::byte* node_base = rt_->p_shared_query(env, shm_win, 0).base;
  const std::byte* my_seg =
      rt_->p_shared_query(env, shm_win, nc->rank_of_world(me)).base;

  // Step 2: exchange every rank's (offset, size) so all origins can
  // translate target displacements into ghost-frame displacements.
  std::vector<Place> places(static_cast<std::size_t>(topo.nranks()));
  Place mine{static_cast<unsigned long long>(my_seg - node_base),
             ghost ? 0ull : static_cast<unsigned long long>(bytes)};
  pmpi_->allgather(env, &mine, static_cast<int>(sizeof(Place)),
                   mpi::Dt::Byte, places.data(), rt_->world());

  // Step 3: the overlapping internal windows over ALL ranks. Each ghost
  // exposes the whole node buffer (byte-addressed); user ranks expose
  // nothing (they are never internal targets — self ops are local).
  std::byte* ghost_base =
      ghost ? const_cast<std::byte*>(node_base) : nullptr;
  const std::size_t ghost_size =
      ghost ? node_bytes(node_users_[static_cast<std::size_t>(my_node)],
                         places)
            : 0;
  std::vector<Win> ug_wins;
  if (epochs & kEpochLock) {
    // One overlapping window per node-local user process, so exclusive locks
    // to different user targets on the same node do not serialize, while
    // locks to the same target keep MPI's permission management (III.A).
    ug_wins.reserve(static_cast<std::size_t>(max_local_users_));
    for (int i = 0; i < max_local_users_; ++i) {
      ug_wins.push_back(pmpi_->win_create(env, ghost_base, ghost_size, 1,
                                          info, rt_->world()));
    }
  }
  Win global_win;
  if (epochs & (kEpochFence | kEpochPscw | kEpochLockAll)) {
    global_win =
        pmpi_->win_create(env, ghost_base, ghost_size, 1, info, rt_->world());
    if (!ghost) {
      // Fence/PSCW are translated onto a permanent passive epoch: lock-all
      // issued once at window allocation (III.C.1).
      pmpi_->win_lock_all(env, 0, global_win);
    }
  }

  // Step 4: build the window's state once and attach. Every member holds
  // the same `places` and got the same internal window handles back, so
  // the state cannot depend on which member builds it; later members only
  // record their node's shared-memory window. Pure work, so it may run
  // under the registry lock (sharded).
  auto lk = registry_lock();
  auto& cw = seq_wins_[seq];
  if (cw == nullptr) {
    cw = make_window_state(places, du, epochs, seq);
    cw->ug_wins = std::move(ug_wins);
    cw->global_win = global_win;
  }
  Win& shm = cw->shm_by_node[static_cast<std::size_t>(my_node)];
  if (shm == nullptr) shm = shm_win;
  return cw;
}

void CasperLayer::free_internal_windows(Env& env, CspWin& cw) {
  // The CspWin is shared between all member ranks: free through handle
  // copies so one rank's teardown does not null the handles another rank is
  // still about to free.
  if (cw.global_win &&
      !is_ghost_[static_cast<std::size_t>(env.world_rank())]) {
    pmpi_->win_unlock_all(env, cw.global_win);
  }
  const int my_node = rt_->topo().node_of(env.world_rank());
  Win shm = cw.shm_by_node[static_cast<std::size_t>(my_node)];
  pmpi_->win_free(env, shm);
  for (Win w : cw.ug_wins) pmpi_->win_free(env, w);
  if (cw.global_win) {
    Win g = cw.global_win;
    pmpi_->win_free(env, g);
  }
}

void CasperLayer::win_free(Env& env, Win& w) {
  std::shared_ptr<CspWin> keep;  // keep the CspWin alive through teardown
  {
    // Lock scoped to the lookup only: the teardown below makes pmpi_ calls
    // that can switch fibers, and holding winmap_mu_ across a fiber switch
    // would deadlock another fiber on the same worker thread.
    auto lk = registry_lock();
    auto it = winmap_.find(w.get());
    if (it != winmap_.end()) keep = it->second;
  }
  if (keep == nullptr) {
    pmpi_->win_free(env, w);
    return;
  }
  GhostCmd cmd;
  cmd.code = GhostCmd::kWinFree;
  cmd.seq = keep->seq;
  notify_ghosts(env, cmd);
  free_internal_windows(env, *keep);
  Win uw = keep->user_win;
  pmpi_->win_free(env, uw);  // collective: all members are done after this
  {
    // Every ghost looked its window up by seq before the world-wide frees
    // in free_internal_windows, which this rank has completed. Both erases
    // are no-ops after the first member.
    auto lk = registry_lock();
    winmap_.erase(keep->user_win.get());
    seq_wins_.erase(keep->seq);
  }
  w.reset();
}

Win CasperLayer::win_allocate_shared(Env& env, std::size_t bytes,
                                     std::size_t du, const mpi::Info& info,
                                     const Comm& c, void** base) {
  // Shared windows are node-local by construction; no asynchronous progress
  // problem to solve, pass through (paper supports the allocate model only).
  ++rt_->stats().counter("casper_unmanaged_windows");
  return pmpi_->win_allocate_shared(env, bytes, du, info, c, base);
}

Win CasperLayer::win_create(Env& env, void* base, std::size_t bytes,
                            std::size_t du, const mpi::Info& info,
                            const Comm& c) {
  // The "create" model needs OS support (XPMEM/SMARTMAP) to map user memory
  // into the ghosts; like the paper's implementation we fall back to the
  // native MPI path, unmanaged.
  ++rt_->stats().counter("casper_unmanaged_windows");
  return pmpi_->win_create(env, base, bytes, du, info, c);
}

int CasperLayer::bound_ghost_of(const Win& user_win, int user_rank) {
  auto& cw = managed_checked(user_win, "bound_ghost_of");
  MMPI_REQUIRE(cfg_.binding == Binding::Rank,
               "casper: bound_ghost_of needs rank binding");
  const auto& ti = cw.tgt[static_cast<std::size_t>(user_rank)];
  const int slot = cw.bind.map[cw.bind.rank_item(ti)];
  return node_ghosts_[static_cast<std::size_t>(ti.node)]
                     [static_cast<std::size_t>(slot)];
}

int CasperLayer::internal_window_count(const Win& user_win) {
  auto& cw = managed_checked(user_win, "internal_window_count");
  return static_cast<int>(cw.ug_wins.size()) + (cw.global_win ? 1 : 0);
}

std::vector<CasperLayer::GhostLoad> CasperLayer::ghost_load(
    const Win& user_win) {
  auto& cw = managed_checked(user_win, "ghost_load");
  std::vector<GhostLoad> out;
  for (const auto& ghosts : node_ghosts_) {
    for (int g : ghosts) {
      GhostLoad gl;
      gl.ghost_world = g;
      for (const auto& ep : cw.ep) {
        gl.ops += ep.ops_to_ghost[ghost_slot(g)];
        gl.bytes += ep.bytes_to_ghost[ghost_slot(g)];
      }
      out.push_back(gl);
    }
  }
  return out;
}

const void* CasperLayer::window_state(const Win& user_win) {
  return managed(user_win);
}

const void* CasperLayer::window_state_of_seq(int seq) {
  auto lk = registry_lock();
  auto it = seq_wins_.find(seq);
  return it == seq_wins_.end() ? nullptr : it->second.get();
}

std::size_t CasperLayer::windows_by_handle() {
  auto lk = registry_lock();
  return winmap_.size();
}

std::size_t CasperLayer::ghost_counter_slots(const Win& user_win,
                                             int origin) {
  auto& cw = managed_checked(user_win, "ghost_counter_slots");
  return cw.ep[static_cast<std::size_t>(origin)].ops_to_ghost.size();
}

}  // namespace casper::core
