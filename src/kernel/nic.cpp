#include "kernel/nic.hpp"

#include <memory>
#include <utility>
#include <vector>

namespace quicsteps::kernel {

void Nic::deliver_ref(net::PacketSlab& slab, net::PacketSlab::Ref ref) {
  check_slab(slab);
  const sim::Time now = loop_.now();
  const net::Packet& pkt = slab_.at(ref);

  if (pkt.is_gso_buffer()) {
    segment(slab_.take(ref));
    return;
  }

  sim::Time earliest = now;
  if (config_.launch_time && pkt.has_txtime) {
    if (pkt.txtime > now) {
      earliest = pkt.txtime + os_.rng().uniform_duration(
                                  sim::Duration::zero(),
                                  config_.launch_jitter_max);
    } else if (config_.drop_missed_launch) {
      // The launch slot has passed before the descriptor reached the NIC.
      ++missed_launch_drops_;
      (void)slab_.take(ref);
      return;
    }
  }
  transmit(ref, earliest);
}

void Nic::segment(net::Packet carrier) {
  // Segmentation happens here, at the driver boundary. Stock GSO releases
  // all segments immediately (they then serialize back-to-back at line
  // rate); the paced-GSO patch spaces segment i by i * seg/rate.
  const sim::Time now = loop_.now();
  const bool paced = !carrier.gso_pacing_rate.is_zero();
  sim::Time release = now;
  if (carrier.gso_segments.use_count() == 1) {
    // The buffer is uniquely ours at the driver boundary, so the segment
    // train moves straight into the slab — no per-segment Packet copy.
    auto& segments =
        const_cast<std::vector<net::Packet>&>(*carrier.gso_segments);
    for (auto& seg : segments) {
      const std::int64_t seg_bytes = seg.size_bytes;
      net::Packet wire = std::move(seg);
      wire.kernel_entry_time = carrier.kernel_entry_time;
      QUICSTEPS_TRACE_SPAN(trace_bus_, obs::TraceStage::kGsoSegment,
                           trace_component_, now, wire);
      transmit(slab_.put(std::move(wire)), release);
      if (paced) {
        release += carrier.gso_pacing_rate.transmit_time(seg_bytes);
      }
    }
    // The buffer is spent; hand the husk (and its capacity) back to the
    // slab pool so the next sendmsg_gso reuses it instead of allocating.
    segments.clear();
    slab_.put_gso_buffer(std::const_pointer_cast<std::vector<net::Packet>>(
        std::move(carrier.gso_segments)));
    return;
  }
  // Someone else still holds the buffer: copy the segments out.
  for (const auto& seg : *carrier.gso_segments) {
    net::Packet wire = seg;
    wire.kernel_entry_time = carrier.kernel_entry_time;
    QUICSTEPS_TRACE_SPAN(trace_bus_, obs::TraceStage::kGsoSegment,
                         trace_component_, now, wire);
    transmit(slab_.put(std::move(wire)), release);
    if (paced) {
      release += carrier.gso_pacing_rate.transmit_time(seg.size_bytes);
    }
  }
}

void Nic::transmit(net::PacketSlab::Ref ref, sim::Time earliest) {
  const sim::Time start = sim::max(sim::max(loop_.now(), earliest), busy_until_);
  const sim::Duration tx =
      config_.line_rate.transmit_time(slab_.size_bytes(ref));
  busy_until_ = start + tx;
  ++packets_sent_;
  QUICSTEPS_TRACE_SPAN(trace_bus_, obs::TraceStage::kNicTx, trace_component_,
                       start, slab_, ref);
  // Completions are never cancelled, so the record can be slotless.
  loop_.post_drain_at(busy_until_, tx_channel_, ref);
}

void Nic::drain_tx(void* self, std::uint32_t ref) {
  Nic* nic = static_cast<Nic*>(self);
  nic->hand_off(nic->downstream_, ref);
}

}  // namespace quicsteps::kernel
