// Flow-id dispatch: the receive-side demultiplexer of a shared path.
//
// When N senders share one bottleneck, every packet that pops out of the
// client-side receiver (and every ACK that comes back) must reach exactly
// the endpoint that owns its flow id. FlowTableSink is that switch: a
// sorted (flow -> sink) table. Unlike the old two-way ternary it replaces
// ("anything that isn't flow A must be flow B"), an id that matches no
// route is an audited error, not a silent misdelivery — a mis-tagged
// packet trips QUICSTEPS_AUDIT instead of corrupting another flow's
// transport state.
//
// At fabric scale the table is on the per-packet hot path twice (data and
// ACK directions), so lookups are a burst cache — packets arrive in
// per-flow trains, so the last hit usually answers — backed by a
// branchless binary search (conditional-move halving, no unpredictable
// branch per probe) when the train switches flows. Registration appends
// and sorts once, so 10k routes cost one sort, not 10k O(n) inserts.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "net/packet.hpp"

namespace quicsteps::net {

class FlowTableSink final : public PacketSink {
 public:
  /// Registration is a bulk build: add_route appends a route for packets
  /// tagged with `flow`; sort_routes() ends the build, sorting once and
  /// auditing duplicate ids (two endpoints would silently split one flow's
  /// packets). A lookup before the sort is an audited error — the table is
  /// unsorted until then.
  void add_route(std::uint32_t flow, PacketSink* sink);
  void sort_routes();
  /// Room for `routes` more routes, so a 10k-route build appends without
  /// regrowing the table.
  void reserve(std::size_t routes) { table_.reserve(table_.size() + routes); }

  /// Routes by pkt.flow. An id with no route trips QUICSTEPS_AUDIT (and
  /// drops the packet in audit-off builds).
  void deliver(Packet pkt) override;

  std::size_t route_count() const { return table_.size(); }

 private:
  PacketSink* find(std::uint32_t flow);

  /// Sorted by flow id up to sorted_; lookups remember the last hit
  /// because packets arrive in per-flow bursts (a train hits one route
  /// repeatedly).
  std::vector<std::pair<std::uint32_t, PacketSink*>> table_;
  std::size_t sorted_ = 0;
  std::size_t last_hit_ = 0;
};

}  // namespace quicsteps::net
