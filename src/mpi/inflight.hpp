// Atomicity-violation detector for the software RMA path (DESIGN.md §7).
//
// Every software-path access lands on one node's memory, and each node is
// served on one engine shard, so the runtime keeps one InflightList per node
// and needs no lock. An access is the byte range a serving entity
// read-modify-wrote over the half-open virtual-time span [t0, t1): the read
// at t0 (`stage`), the write at t1 (`land`). Two accesses conflict when they
// come from different entities, at least one writes, and both their spans and
// their byte ranges overlap; every such pair is counted exactly once.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "mpi/check.hpp"
#include "sim/time.hpp"

namespace casper::mpi {

/// A landed software access: a target-memory byte range read at t0 and
/// written (or only read) at t1 by one processing entity.
struct InflightOp {
  std::uintptr_t lo = 0, hi = 0;  ///< absolute byte range [lo, hi)
  sim::Time t0 = 0, t1 = 0;       ///< half-open processing span [t0, t1)
  int entity = 0;  ///< processing entity id: world rank for pollers; agents
                   ///< and NICs use offset id spaces (see Runtime)
  bool is_write = true;
};

/// One node's landed accesses in commit (t1) order, plus the read times of
/// the services still open on the node.
///
/// Calls arrive in virtual-time order: `open(t0)` when a two-phase service
/// reads at t0, `record(a)` when it lands at a.t1 (the current time), and
/// `close(t0)` once it has landed or was abandoned between its phases.
/// Instant accesses (t0 == t1) are recorded without an open.
///
/// - record() walks back from the tail and stops at the first entry with
///   t1 <= a.t0: the list is sorted by t1, so no earlier entry can overlap.
/// - An entry can meet a future access only if that access reads before the
///   entry's t1. Future accesses read at an open service's t0 or at a time
///   not yet reached, so entries with t1 <= min(now, earliest open t0) are
///   dropped from the front. The drop runs when the list has doubled since
///   the last one, so it costs O(1) per record and the list stays within
///   twice what the last drop kept (or `min_prune`).
class InflightList {
 public:
  explicit InflightList(std::size_t min_prune = 16)
      : min_prune_(min_prune), prune_at_(min_prune) {}

  void open(sim::Time t0) { open_.push_back(t0); }

  void close(sim::Time t0) {
    const auto it = std::find(open_.begin(), open_.end(), t0);
    MMPI_REQUIRE(it != open_.end(), "closing a service that was not open");
    *it = open_.back();
    open_.pop_back();
  }

  /// Append `a`, landed now (at a.t1); returns how many recorded accesses
  /// it conflicts with.
  std::uint64_t record(const InflightOp& a) {
    MMPI_REQUIRE(ops_.empty() || ops_.back().t1 <= a.t1,
                 "in-flight access landed out of commit order");
    std::uint64_t conflicts = 0;
    for (auto it = ops_.rbegin(); it != ops_.rend() && it->t1 > a.t0; ++it) {
      if (it->entity == a.entity || !(it->is_write || a.is_write)) continue;
      // Half-open overlap; a zero-width access conflicts when it falls
      // strictly inside another access's span.
      if (it->t0 < a.t1 && it->lo < a.hi && a.lo < it->hi) ++conflicts;
    }
    ops_.push_back(a);
    if (ops_.size() >= prune_at_) prune(a.t1);
    return conflicts;
  }

  std::size_t size() const { return ops_.size(); }

 private:
  void prune(sim::Time now) {
    sim::Time horizon = now;
    for (const sim::Time t : open_) horizon = std::min(horizon, t);
    ops_.erase(ops_.begin(),
               std::partition_point(ops_.begin(), ops_.end(),
                                    [horizon](const InflightOp& e) {
                                      return e.t1 <= horizon;
                                    }));
    prune_at_ = std::max(min_prune_, 2 * ops_.size());
  }

  std::vector<InflightOp> ops_;  ///< nondecreasing t1
  std::vector<sim::Time> open_;  ///< read times of open two-phase services
  std::size_t min_prune_;
  std::size_t prune_at_;
};

}  // namespace casper::mpi
