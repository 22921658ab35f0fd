#include "net/flow_index.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace quicsteps::net {

std::uint32_t FlowIndex::add(std::uint32_t flow) {
  std::uint32_t lo = flow;
  std::uint64_t hi = flow;
  if (!table_.empty()) {
    lo = std::min(flow, min_id_);
    hi = std::max<std::uint64_t>(flow, min_id_ + table_.size() - 1);
  }
  const std::uint64_t span = hi - lo + 1;
  // Dense ids keep the table as long as the flow count; the slack admits
  // hand-picked ids (tests, hand-wired paths).
  if (span > 16 * (std::uint64_t{count_} + 1) + 4096) {
    throw std::length_error("FlowIndex: flow ids span " +
                            std::to_string(span) + " values for " +
                            std::to_string(count_ + 1) + " flows");
  }
  if (!table_.empty() && lo < min_id_) {
    table_.insert(table_.begin(), min_id_ - lo, kNone);
  }
  min_id_ = lo;
  table_.resize(span, kNone);
  const std::uint32_t slot = count_++;
  std::uint32_t& entry = table_[flow - min_id_];
  if (entry == kNone) entry = slot;
  return slot;
}

}  // namespace quicsteps::net
