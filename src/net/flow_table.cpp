#include "net/flow_table.hpp"

#include <algorithm>
#include <string>

#include "check/audit.hpp"

namespace quicsteps::net {

void FlowTableSink::add_route(std::uint32_t flow, PacketSink* sink) {
  table_.push_back({flow, sink});
}

void FlowTableSink::sort_routes() {
  std::sort(table_.begin(), table_.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (std::size_t i = 1; i < table_.size(); ++i) {
    QUICSTEPS_AUDIT(table_[i - 1].first != table_[i].first,
                    "flow " + std::to_string(table_[i].first) +
                        " registered twice");
  }
  sorted_ = table_.size();
  last_hit_ = 0;
}

PacketSink* FlowTableSink::find(std::uint32_t flow) {
  // Burst cache: trains hit one route repeatedly, so the previous answer
  // is usually this packet's answer too.
  if (last_hit_ < table_.size() && table_[last_hit_].first == flow) {
    return table_[last_hit_].second;
  }
  // Branchless binary search: the halving step compiles to a conditional
  // move, so a cold lookup costs log2(n) predictable iterations with no
  // data-dependent branch — at 10k routes the mispredict-per-probe of
  // std::lower_bound is the dominant dispatch cost.
  std::size_t lo = 0;
  std::size_t len = table_.size();
  while (len > 1) {
    const std::size_t half = len / 2;
    lo += table_[lo + half - 1].first < flow ? half : 0;
    len -= half;
  }
  if (len == 1 && table_[lo].first == flow) {
    last_hit_ = lo;
    return table_[lo].second;
  }
  return nullptr;
}

void FlowTableSink::deliver(Packet pkt) {
  QUICSTEPS_AUDIT(sorted_ == table_.size(),
                  "FlowTableSink lookup before sort_routes()");
  if (PacketSink* sink = find(pkt.flow)) {
    sink->deliver(std::move(pkt));
    return;
  }
  QUICSTEPS_AUDIT(false, "packet for unregistered flow " +
                             std::to_string(pkt.flow) + " (" +
                             to_string(pkt.kind) + std::string(")"));
}

}  // namespace quicsteps::net
