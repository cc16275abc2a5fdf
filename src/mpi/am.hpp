// Active messages: the software path of RMA operations, plus point-to-point
// message records.
#pragma once

#include <cstdint>
#include <vector>

#include "mpi/types.hpp"
#include "sim/pool.hpp"
#include "sim/time.hpp"

namespace casper::mpi {

class WinImpl;

/// RMA operation kinds carried by active messages.
enum class OpKind : std::uint8_t {
  Put,
  Get,
  Acc,          // accumulate
  GetAcc,       // get_accumulate (fetches old value, then applies op)
  Fao,          // fetch_and_op: single-element GetAcc
  Cas,          // compare_and_swap: single element
  LockReq,      // passive-target lock request
  LockRelease,  // passive-target unlock
};

/// An RMA operation after packing at the origin, and the one record that
/// carries it to target memory: queued while a delayed lock is pending,
/// delivered to a target rank's inbox (or handled by that rank's progress
/// agent or the NIC), and executed target-side by Runtime::stage/land with a
/// processing cost; an acknowledgment (optionally carrying fetched data)
/// returns to the origin on completion. Lock requests and releases ride the
/// same record.
struct AmOp {
  OpKind kind = OpKind::Put;
  AccOp op = AccOp::Replace;
  LockType lock_type = LockType::Shared;  ///< LockReq / LockRelease only
  /// The memory this op touches lives in a different NUMA domain than the
  /// processing entity (Casper: a ghost serving a remote-domain user's
  /// segment); processing pays the cross-domain memory penalty.
  bool cross_numa = false;
  int origin_world = -1;
  int target_world = -1;
  int origin_comm_rank = -1;
  int target_comm_rank = -1;
  /// Accounting coordinates: the (origin_comm_rank, ·) cell whose
  /// `outstanding` count the ack decrements. Fault forwarding may rewrite
  /// target_comm_rank to a successor ghost; the ack still settles against
  /// the cell the origin issued to. -1 = same as target_comm_rank.
  int acct_target_comm = -1;
  std::uint64_t opid = 0;
  WinImpl* win = nullptr;

  // data description (target side)
  std::size_t target_disp = 0;  // bytes (disp * disp_unit resolved at issue)
  int target_count = 0;
  Datatype target_dt;

  // payload for Put/Acc/GetAcc/Fao/Cas (packed origin data), drawn from the
  // runtime's buffer pool. Cas: payload = [compare | new]; single elements.
  sim::PoolBuf payload;

  // origin-side result description for Get/GetAcc/Fao/Cas
  void* origin_result = nullptr;
  int origin_count = 0;
  Datatype origin_dt;
};

/// A two-sided message in flight / queued unexpected.
struct P2pMsg {
  int src_world = -1;
  int tag = 0;
  int comm_id = -1;
  std::vector<std::byte> data;
};

}  // namespace casper::mpi
