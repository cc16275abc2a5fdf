// Shadow-memory oracle: a sequentially consistent reference copy of every
// simulated window, validated against real window bytes at synchronization
// points.
//
// Key design decision — the shadow is keyed by PHYSICAL ADDRESS, not by
// window. Casper deliberately aliases memory: its internal windows (the
// per-local-user overlapping windows, the fence/pscw/lockall window, and the
// node shared-memory windows) expose the very same node buffers as the user
// window. A per-window shadow would diverge from itself the moment an op
// arrives through a different alias. Address-keyed spans see one byte of
// simulated memory exactly once, whatever window name an op used to reach it.
//
// Soundness argument (why a mismatch is always a real bug, never a false
// positive): real target memory and the shadow are both mutated at the same
// simulated instant — the runtime's commit (write phase / self-op execution)
// calls the observer synchronously right after writing real bytes. Both
// copies therefore step through identical states UNLESS the runtime's commit
// was computed from a stale read: the software path reads target memory at
// processing START and commits the derived value at processing END, so a
// different entity committing in between makes the real write clobber that
// update while the shadow (which applies the operation to its CURRENT state)
// keeps it. That read-at-start/write-at-end overlap between different
// processing entities is precisely the atomicity/ordering hazard the paper's
// static binding exists to prevent (Section III.B) — i.e. the oracle
// diverges exactly when MPI semantics were violated.
//
// Sync points and skipped scans. The runtime reports every sync it performs,
// on Casper's internal windows as well as on user windows, so one user flush
// under Casper reaches on_sync twice: once for the inner flush to the
// target's ghosts and once for the user-level flush right after it. A sync
// compares memory only when memory could have changed since the last scan:
// when some observed write (a non-GET commit, a local store, a window
// registration or free) set the dirty flag, or when the engine's quiet stamp
// (sim::Engine::quiet_stamp) moved. The stamp rises at every scheduling
// decision, at every Env call entry and when a user main returns, so an
// unchanged stamp proves that only the calling rank's own library code ran
// since the last scan. Library code writes window memory only through the
// runtime's commit (land), self execution (exec_self) and Env::local_store,
// all observed above, and the last scan re-synced every divergence it found;
// so the skipped compare could not have found anything. Off a rank fiber
// the stamp is 0 and every sync scans. validations() counts every sync
// answered, scans() the full compares.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "mpi/observe.hpp"
#include "sim/time.hpp"

namespace casper::check {

/// One detected mismatch between real window memory and the shadow copy.
struct Divergence {
  sim::Time t = 0;          ///< virtual time of the validating sync
  std::string where;        ///< e.g. "flush_all by world rank 3"
  int win_id = -1;          ///< a window whose registration covers the byte
  std::uintptr_t addr = 0;  ///< absolute address of first differing byte
  std::size_t span_off = 0; ///< offset of that byte inside its span
  std::uint8_t real = 0;
  std::uint8_t shadow = 0;
  std::size_t nbytes = 0;   ///< total differing bytes in the span
};

class ShadowOracle final : public mpi::RmaObserver {
 public:
  // ---- mpi::RmaObserver ---------------------------------------------------
  void on_win_register(mpi::WinImpl& win) override;
  void on_win_free(mpi::WinImpl& win) override;
  void on_op_commit(const mpi::AmOp& op, sim::Time t, int entity) override;
  void on_sync(mpi::WinImpl& win, int world_rank, mpi::SyncKind kind,
               int target, sim::Time t) override;
  /// Local stores mutate real window bytes outside the commit stream: mirror
  /// them into the shadow at the same instant so validation stays coherent.
  void on_local_access(mpi::WinImpl& win, int comm_rank, std::size_t offset,
                       std::size_t len, bool is_store, sim::Time t) override;

  /// Compare every registered byte against its shadow, always (no skip);
  /// returns the number of NEW divergences found (also appended to
  /// divergences(), capped).
  std::size_t validate(sim::Time t, const std::string& where);

  const std::vector<Divergence>& divergences() const { return divs_; }
  bool clean() const { return divs_.empty(); }

  std::uint64_t commits_seen() const { return commits_; }
  std::uint64_t syncs_seen() const { return syncs_; }
  /// Sync points answered (every on_sync, every validate()).
  std::uint64_t validations() const { return validations_; }
  /// Full compares of every registered byte (at most validations()).
  std::uint64_t scans() const { return scans_; }
  std::uint64_t bytes_tracked() const;

  /// Drop all spans and recorded divergences (reuse across runs).
  void reset();

 private:
  /// A coalesced range of simulated memory with its reference copy. Spans
  /// never overlap; registration merges intersecting/adjacent ranges.
  struct Span {
    std::uintptr_t lo = 0;
    std::vector<std::byte> shadow;
    int win_id = -1;  ///< most recent window registering any part of it
    std::uintptr_t hi() const { return lo + shadow.size(); }
  };

  /// Register [lo, hi): merge with intersecting/adjacent spans and re-copy
  /// the merged range from real memory (window creation is collective and
  /// quiescent, so real == the correct reference state here; this also
  /// handles heap-address reuse after a window free).
  void add_range(std::uintptr_t lo, std::uintptr_t hi, int win_id);

  /// Shadow storage for [addr, addr+len), or nullptr when the range is not
  /// fully inside one registered span.
  std::byte* shadow_at(std::uintptr_t addr, std::size_t len);

  /// The full compare behind validate() and on_sync(). `where()` builds the
  /// divergence text, called only when a span differs.
  template <class Where>
  std::size_t scan(sim::Time t, const Where& where);

  std::map<std::uintptr_t, Span> spans_;  // keyed by Span::lo
  std::vector<Divergence> divs_;
  std::uint64_t commits_ = 0;
  std::uint64_t syncs_ = 0;
  std::uint64_t validations_ = 0;
  std::uint64_t scans_ = 0;
  /// Some observed write may have moved memory since the last scan.
  bool dirty_ = true;
  /// sim::Engine::quiet_stamp() at the last scan (0: none comparable).
  std::uint64_t scan_stamp_ = 0;

  static constexpr std::size_t kMaxRecorded = 32;
};

}  // namespace casper::check
