#include "kernel/nic.hpp"

#include <memory>
#include <utility>
#include <vector>

namespace quicsteps::kernel {

void Nic::deliver(net::Packet pkt) {
  const sim::Time now = loop_.now();

  if (pkt.is_gso_buffer()) {
    // Segmentation happens here, at the driver boundary. Stock GSO releases
    // all segments immediately (they then serialize back-to-back at line
    // rate); the paced-GSO patch spaces segment i by i * seg/rate.
    const bool paced = !pkt.gso_pacing_rate.is_zero();
    sim::Time release = now;
    if (pkt.gso_segments.use_count() == 1) {
      // The buffer is uniquely ours at the driver boundary, so the segment
      // train moves straight into the slab — no per-segment Packet copy.
      auto& segments =
          const_cast<std::vector<net::Packet>&>(*pkt.gso_segments);
      for (auto& seg : segments) {
        const std::int64_t seg_bytes = seg.size_bytes;
        net::Packet wire = std::move(seg);
        wire.kernel_entry_time = pkt.kernel_entry_time;
        QUICSTEPS_TRACE_SPAN(trace_bus_, obs::TraceStage::kGsoSegment,
                             trace_component_, now, wire);
        transmit(std::move(wire), release);
        if (paced) {
          release += pkt.gso_pacing_rate.transmit_time(seg_bytes);
        }
      }
      // The buffer is spent; hand the husk (and its capacity) back to the
      // slab pool so the next sendmsg_gso reuses it instead of allocating.
      segments.clear();
      slab_.put_gso_buffer(std::const_pointer_cast<std::vector<net::Packet>>(
          std::move(pkt.gso_segments)));
      return;
    }
    // Someone else still holds the buffer: copy the segments out.
    const auto& segments = *pkt.gso_segments;
    for (const auto& seg : segments) {
      net::Packet wire = seg;
      wire.kernel_entry_time = pkt.kernel_entry_time;
      QUICSTEPS_TRACE_SPAN(trace_bus_, obs::TraceStage::kGsoSegment,
                           trace_component_, now, wire);
      transmit(std::move(wire), release);
      if (paced) {
        release += pkt.gso_pacing_rate.transmit_time(seg.size_bytes);
      }
    }
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
      return;
    }
  }
  transmit(std::move(pkt), earliest);
}

void Nic::transmit(net::Packet pkt, sim::Time earliest) {
  const sim::Time start = sim::max(sim::max(loop_.now(), earliest), busy_until_);
  const sim::Duration tx = config_.line_rate.transmit_time(pkt.size_bytes);
  busy_until_ = start + tx;
  ++packets_sent_;
  QUICSTEPS_TRACE_SPAN(trace_bus_, obs::TraceStage::kNicTx, trace_component_,
                       start, pkt);
  // Completions are never cancelled, so the record can be slotless.
  loop_.post_drain_at(busy_until_, tx_channel_, slab_.put(std::move(pkt)));
}

void Nic::drain_tx(void* self, std::uint32_t ref) {
  Nic* nic = static_cast<Nic*>(self);
  net::Packet pkt = nic->slab_.take(ref);
  if (nic->downstream_ != nullptr) nic->downstream_->deliver(std::move(pkt));
}

}  // namespace quicsteps::kernel
