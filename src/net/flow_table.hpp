// Flow-id dispatch: the receive-side demultiplexer of a shared path.
//
// When N senders share one bottleneck, every packet that pops out of the
// client-side receiver (and every ACK that comes back) must reach exactly
// the endpoint that owns its flow id. FlowTableSink is that switch: a
// (flow -> sink) table. Unlike the old two-way ternary it replaces
// ("anything that isn't flow A must be flow B"), an id that matches no
// route is an audited error, not a silent misdelivery — a mis-tagged
// packet trips QUICSTEPS_AUDIT instead of corrupting another flow's
// transport state.
//
// At fabric scale the table is on the per-packet hot path twice (data and
// ACK directions), so the lookup is a net::FlowIndex: one load from a flat
// table indexed by flow id. The id comes off the slab's hot lane, so the
// endpoint is found before the packet's own cache lines are loaded.
#pragma once

#include <cstdint>
#include <vector>

#include "net/flow_index.hpp"
#include "net/packet.hpp"
#include "net/packet_slab.hpp"

namespace quicsteps::net {

class FlowTableSink final : public PacketHop {
 public:
  explicit FlowTableSink(PacketSlab& slab) : PacketHop(slab) {}

  /// Registration is a bulk build: add_route appends a route for packets
  /// tagged with `flow`; finish_routes() ends the build, auditing
  /// duplicate ids (two endpoints would silently split one flow's
  /// packets; the first registration keeps the route). A lookup before
  /// finish_routes() is an audited error.
  void add_route(std::uint32_t flow, PacketSink* sink);
  void finish_routes();
  /// Room for `routes` more routes, so a 10k-route build appends without
  /// regrowing the table.
  void reserve(std::size_t routes);

  /// Routes by the packet's flow id. An id with no route trips
  /// QUICSTEPS_AUDIT (and drops the packet in audit-off builds).
  void deliver_ref(PacketSlab& slab, PacketSlab::Ref ref) override;

  std::size_t route_count() const { return sinks_.size(); }

 private:
  FlowIndex index_;
  std::vector<PacketSink*> sinks_;  // by FlowIndex slot
  std::vector<std::uint32_t> duplicates_;  // reported by finish_routes()
  bool finished_ = true;
};

}  // namespace quicsteps::net
