#include "kernel/nic.hpp"

namespace quicsteps::kernel {

void Nic::deliver_ref(net::PacketSlab& slab, net::PacketSlab::Ref ref) {
  check_slab(slab);
  if (slab_.next(ref) != net::PacketSlab::kNoRef) {
    segment(ref);
    return;
  }

  const sim::Time now = loop_.now();
  const net::Packet& pkt = slab_.at(ref);
  sim::Time earliest = now;
  if (config_.launch_time && pkt.has_txtime) {
    if (pkt.txtime > now) {
      earliest = pkt.txtime + os_.rng().uniform_duration(
                                  sim::Duration::zero(),
                                  config_.launch_jitter_max);
    } else if (config_.drop_missed_launch) {
      // The launch slot has passed before the descriptor reached the NIC.
      ++missed_launch_drops_;
      slab_.retire(ref);
      return;
    }
  }
  transmit(ref, earliest);
}

void Nic::segment(net::PacketSlab::Ref carrier) {
  // Segmentation happens here, at the driver boundary. Stock GSO releases
  // all segments immediately (they then serialize back-to-back at line
  // rate); the paced-GSO patch spaces segment i by i * seg/rate.
  const sim::Time now = loop_.now();
  const net::DataRate rate = slab_.at(carrier).gso_pacing_rate;
  sim::Time release = now;
  net::PacketSlab::Ref seg = slab_.unlink(carrier);
  slab_.retire(carrier);
  while (seg != net::PacketSlab::kNoRef) {
    // Each segment leaves the chain before it is transmitted alone.
    const net::PacketSlab::Ref following = slab_.unlink(seg);
    QUICSTEPS_TRACE_SPAN(trace_bus_, obs::TraceStage::kGsoSegment,
                         trace_component_, now, slab_, seg);
    const std::uint32_t seg_bytes = slab_.size_bytes(seg);
    transmit(seg, release);
    if (!rate.is_zero()) release += rate.transmit_time(seg_bytes);
    seg = following;
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
