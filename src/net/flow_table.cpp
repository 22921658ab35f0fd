#include "net/flow_table.hpp"

#include <string>

#include "check/audit.hpp"

namespace quicsteps::net {

void FlowTableSink::add_route(std::uint32_t flow, PacketSink* sink) {
  const bool duplicate = index_.find(flow) != FlowIndex::kNone;
  index_.add(flow);
  if (duplicate) duplicates_.push_back(flow);
  sinks_.push_back(sink);
  finished_ = false;
}

void FlowTableSink::finish_routes() {
  QUICSTEPS_AUDIT(duplicates_.empty(),
                  "flow " + std::to_string(duplicates_.front()) +
                      " registered twice");
  duplicates_.clear();
  finished_ = true;
}

void FlowTableSink::reserve(std::size_t routes) {
  index_.reserve(routes);
  sinks_.reserve(sinks_.size() + routes);
}

void FlowTableSink::deliver_ref(PacketSlab& slab, PacketSlab::Ref ref) {
  check_slab(slab);
  QUICSTEPS_AUDIT(finished_,
                  "FlowTableSink lookup before finish_routes()");
  const std::uint32_t flow = slab_.flow(ref);
  const std::uint32_t slot = index_.find(flow);
  if (slot != FlowIndex::kNone) {
    sinks_[slot]->deliver_ref(slab_, ref);
    return;
  }
  QUICSTEPS_AUDIT(false, "packet for unregistered flow " +
                             std::to_string(flow) + " (" +
                             to_string(slab_.at(ref).kind) +
                             std::string(")"));
  slab_.retire(ref);
}

}  // namespace quicsteps::net
