// Dense flow-id index: the one flow -> slot map behind every per-packet
// flow lookup (FlowTableSink dispatch, FlowCaptureDemux routing and
// BottleneckPath drop attribution).
//
// Slot i is the i-th id added. The ids live in a flat table indexed by
// `flow - min_id`, so a lookup is one subtraction, one bounds check and
// one load: no search, and no last-hit cache that 10k interleaved flows
// would keep missing. Framework flow ids are dense (1 or 2 for a single
// flow, 10 + i for N flows), so the table is as long as the flow count
// and registration in id order only ever appends to it.
#pragma once

#include <cstdint>
#include <vector>

namespace quicsteps::net {

class FlowIndex {
 public:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  /// Room for `flows` more ids registered in ascending order.
  void reserve(std::size_t flows) { table_.reserve(table_.size() + flows); }

  /// Registers `flow` under the next slot and returns that slot. A
  /// duplicate id uses up a slot but keeps resolving to its first one.
  /// Ids spanning far more values than there are flows throw
  /// std::length_error instead of allocating a mostly empty table.
  std::uint32_t add(std::uint32_t flow);

  /// Slot of `flow`, or kNone when it is not registered.
  std::uint32_t find(std::uint32_t flow) const {
    // Ids below min_id_ wrap to huge offsets and fail the bounds check.
    const std::uint32_t offset = flow - min_id_;
    return offset < table_.size() ? table_[offset] : kNone;
  }

  /// Slots handed out so far (duplicates included).
  std::size_t size() const { return count_; }

 private:
  std::vector<std::uint32_t> table_;  // slot by flow - min_id_
  std::uint32_t min_id_ = 0;
  std::uint32_t count_ = 0;
};

}  // namespace quicsteps::net
