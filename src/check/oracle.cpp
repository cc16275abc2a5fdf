#include "check/oracle.hpp"

#include <cstring>

#include "mpi/check.hpp"
#include "mpi/datatype.hpp"
#include "mpi/win.hpp"
#include "sim/engine.hpp"

namespace casper::check {

void ShadowOracle::add_range(std::uintptr_t lo, std::uintptr_t hi,
                             int win_id) {
  if (lo >= hi) return;
  // Pull in every span that intersects or touches [lo, hi) and widen the
  // range to their union.
  auto it = spans_.upper_bound(lo);
  if (it != spans_.begin()) {
    auto prev = std::prev(it);
    if (prev->second.hi() >= lo) it = prev;
  }
  while (it != spans_.end() && it->second.lo <= hi) {
    lo = std::min(lo, it->second.lo);
    hi = std::max(hi, it->second.hi());
    it = spans_.erase(it);
  }
  Span s;
  s.lo = lo;
  s.win_id = win_id;
  s.shadow.resize(hi - lo);
  // Window creation is collective: no operation is in flight, so real memory
  // IS the reference state. Re-copying (rather than preserving old shadow
  // content) also resets ranges whose heap address was recycled after a free.
  std::memcpy(s.shadow.data(), reinterpret_cast<const void*>(lo), hi - lo);
  spans_.emplace(lo, std::move(s));
}

std::byte* ShadowOracle::shadow_at(std::uintptr_t addr, std::size_t len) {
  auto it = spans_.upper_bound(addr);
  if (it == spans_.begin()) return nullptr;
  --it;
  Span& s = it->second;
  if (addr < s.lo || addr + len > s.hi()) return nullptr;
  return s.shadow.data() + (addr - s.lo);
}

template <class Where>
std::size_t ShadowOracle::scan(sim::Time t, const Where& where) {
  ++scans_;
  dirty_ = false;
  scan_stamp_ = sim::Engine::quiet_stamp();
  std::size_t found = 0;
  std::string text;  // built at the first differing span
  for (auto& [lo, s] : spans_) {
    const auto* real = reinterpret_cast<const std::byte*>(lo);
    if (std::memcmp(real, s.shadow.data(), s.shadow.size()) == 0) continue;
    if (found++ == 0) text = where();
    Divergence d;
    d.t = t;
    d.where = text;
    d.win_id = s.win_id;
    for (std::size_t i = 0; i < s.shadow.size(); ++i) {
      if (real[i] != s.shadow[i]) {
        if (d.nbytes == 0) {
          d.addr = lo + i;
          d.span_off = i;
          d.real = static_cast<std::uint8_t>(real[i]);
          d.shadow = static_cast<std::uint8_t>(s.shadow[i]);
        }
        ++d.nbytes;
      }
    }
    if (divs_.size() < kMaxRecorded) divs_.push_back(std::move(d));
    // Re-sync so one corruption is reported once per sync point, not
    // amplified into a divergence at every later validation.
    std::memcpy(s.shadow.data(), real, s.shadow.size());
  }
  return found;
}

void ShadowOracle::on_win_register(mpi::WinImpl& win) {
  dirty_ = true;
  for (const auto& seg : win.segs) {
    if (seg.base == nullptr || seg.size == 0) continue;
    const auto lo = reinterpret_cast<std::uintptr_t>(seg.base);
    add_range(lo, lo + seg.size, win.id());
  }
}

void ShadowOracle::on_win_free(mpi::WinImpl& win) {
  // Keep the spans: Casper's internal windows alias the same buffers, and a
  // later window over recycled memory re-syncs on registration anyway.
  (void)win;
  dirty_ = true;
}

void ShadowOracle::on_op_commit(const mpi::AmOp& op, sim::Time t,
                                int entity) {
  (void)t;
  (void)entity;
  ++commits_;
  using mpi::OpKind;
  if (op.kind == OpKind::Get) return;  // reads never move the shadow
  dirty_ = true;

  const mpi::Segment& seg =
      op.win->segs[static_cast<std::size_t>(op.target_comm_rank)];
  const auto addr =
      reinterpret_cast<std::uintptr_t>(seg.base) + op.target_disp;
  const std::size_t span = mpi::span_bytes(op.target_count, op.target_dt);
  std::byte* sh = shadow_at(addr, span);
  MMPI_REQUIRE(sh != nullptr,
               "oracle: op commit outside registered memory (win %d)",
               op.win->id());

  switch (op.kind) {
    case OpKind::Put:
      mpi::unpack(sh, op.target_count, op.target_dt, op.payload);
      break;
    case OpKind::Acc:
    case OpKind::GetAcc:
    case OpKind::Fao:
      // The shadow applies the operation to its CURRENT value — the
      // sequentially consistent outcome. The runtime committed a value
      // derived from its processing-start read; if something else committed
      // in between, the copies part ways and validation reports it.
      mpi::reduce_into(sh, op.target_count, op.target_dt, op.payload, op.op);
      break;
    case OpKind::Cas: {
      const std::size_t es = op.target_dt.elem_size();
      if (std::memcmp(sh, op.payload.data(), es) == 0) {
        std::memcpy(sh, op.payload.data() + es, es);
      }
      break;
    }
    case OpKind::Get:
    case OpKind::LockReq:
    case OpKind::LockRelease:
      break;
  }
}

void ShadowOracle::on_sync(mpi::WinImpl& win, int world_rank,
                           mpi::SyncKind kind, int target, sim::Time t) {
  (void)target;
  ++syncs_;
  ++validations_;
  // Nothing observed wrote and nothing but this rank's library code ran
  // since the last scan (oracle.hpp): that scan's answer still holds.
  const std::uint64_t stamp = sim::Engine::quiet_stamp();
  if (!dirty_ && stamp != 0 && stamp == scan_stamp_) return;
  scan(t, [&] {
    return std::string(mpi::to_string(kind)) + " on win " +
           std::to_string(win.id()) + " by world rank " +
           std::to_string(world_rank);
  });
}

void ShadowOracle::on_local_access(mpi::WinImpl& win, int comm_rank,
                                   std::size_t offset, std::size_t len,
                                   bool is_store, sim::Time t) {
  (void)t;
  if (!is_store) return;
  dirty_ = true;
  const mpi::Segment& seg = win.segs[static_cast<std::size_t>(comm_rank)];
  const auto addr = reinterpret_cast<std::uintptr_t>(seg.base) + offset;
  std::byte* sh = shadow_at(addr, len);
  MMPI_REQUIRE(sh != nullptr,
               "oracle: local store outside registered memory (win %d)",
               win.id());
  std::memcpy(sh, seg.base + offset, len);
}

std::size_t ShadowOracle::validate(sim::Time t, const std::string& where) {
  ++validations_;
  return scan(t, [&] { return where; });
}

std::uint64_t ShadowOracle::bytes_tracked() const {
  std::uint64_t n = 0;
  for (const auto& [lo, s] : spans_) {
    (void)lo;
    n += s.shadow.size();
  }
  return n;
}

void ShadowOracle::reset() {
  spans_.clear();
  divs_.clear();
  commits_ = 0;
  syncs_ = 0;
  validations_ = 0;
  scans_ = 0;
  dirty_ = true;
  scan_stamp_ = 0;
}

}  // namespace casper::check
