// Passive optical-tap model (the paper's sniffer).
//
// The tap sits on the wire between the server NIC and the bottleneck. It
// stamps each packet's `wire_time` with the exact simulated instant and
// keeps a copy (the capture), then forwards the original unchanged. Like
// the real fiber tap + MoonGen setup, observation is perfectly
// non-intrusive: it adds no delay and never drops.
//
// The packet stays in the slab: the tap stamps and observes it through a
// borrow, and forwards its ref.
#pragma once

#include <functional>
#include <vector>

#include "net/packet.hpp"
#include "net/packet_slab.hpp"
#include "obs/trace.hpp"
#include "sim/event_loop.hpp"

namespace quicsteps::net {

class WireTap final : public PacketHop, public obs::TraceSource {
 public:
  WireTap(sim::EventLoop& loop, PacketSlab& slab, PacketSink* downstream)
      : PacketHop(slab), loop_(loop), downstream_(downstream) {}

  void deliver_ref(PacketSlab& slab, PacketSlab::Ref ref) override {
    check_slab(slab);
    // The borrow ends before hand_off(): nothing here puts into the slab.
    Packet& pkt = slab_.at(ref);
    pkt.wire_time = loop_.now();
    QUICSTEPS_TRACE_SPAN(trace_bus_, obs::TraceStage::kWire,
                         trace_component_, pkt.wire_time, pkt);
    if (retain_capture_) capture_.push_back(pkt);
    if (on_packet_) on_packet_(pkt);
    hand_off(downstream_, ref);
  }

  /// Full capture, in wire order.
  const std::vector<Packet>& capture() const { return capture_; }

  /// Retention switch. Defaults to on (hand-wired paths read the capture
  /// directly); run_flows turns it off — its analysis streams through
  /// on_packet, so retaining a copy of every wire packet would be pure
  /// per-packet allocation.
  void set_retain_capture(bool retain) { retain_capture_ = retain; }

  /// Optional live callback (used by long-running experiments to stream
  /// metrics instead of retaining the whole capture). It sees the packet
  /// in place and must not send into the network.
  void set_on_packet(std::function<void(const Packet&)> cb) {
    on_packet_ = std::move(cb);
  }

 private:
  sim::EventLoop& loop_;
  PacketSink* downstream_;
  bool retain_capture_ = true;
  std::vector<Packet> capture_;
  std::function<void(const Packet&)> on_packet_;
};

}  // namespace quicsteps::net
