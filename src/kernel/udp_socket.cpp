#include "kernel/udp_socket.hpp"

namespace quicsteps::kernel {

void UdpSocket::inject(net::PacketSlab::Ref ref) {
  const std::int64_t bytes = slab_.size_bytes(ref);
  counters_.count_in(bytes);
  counters_.count_out(bytes);
  QUICSTEPS_TRACE_SPAN(trace_bus_, obs::TraceStage::kSocketWrite,
                       trace_component_, loop_.now(), slab_, ref);
  if (egress_ != nullptr) {
    egress_->deliver_ref(slab_, ref);
  } else {
    slab_.retire(ref);
  }
}

sim::Duration UdpSocket::sendmsg(net::Packet pkt) {
  ++syscalls_;
  // The kernel entry: the packet enters the slab here, and every hop up
  // to its endpoint passes its ref.
  pkt.kernel_entry_time = loop_.now();
  inject(slab_.put(pkt));
  return os_.draw_syscall_cost();
}

sim::Duration UdpSocket::sendmsg_gso(std::vector<net::Packet>& segments,
                                     net::DataRate gso_pacing_rate) {
  ++syscalls_;
  for (net::Packet& seg : segments) seg.kernel_entry_time = loop_.now();
  inject(make_gso_buffer(slab_, segments, next_gso_id_++, gso_pacing_rate));
  segments.clear();
  // One syscall regardless of segment count — this is GSO's CPU win.
  return os_.draw_syscall_cost();
}

sim::Duration UdpSocket::sendmmsg(std::vector<net::Packet>& packets) {
  ++syscalls_;
  for (net::Packet& pkt : packets) {
    pkt.kernel_entry_time = loop_.now();
    inject(slab_.put(pkt));
  }
  packets.clear();
  // One kernel entry regardless of message count — the kernel loops over
  // the messages inside the syscall.
  return os_.draw_syscall_cost();
}

void UdpReceiver::deliver_ref(net::PacketSlab& slab,
                              net::PacketSlab::Ref ref) {
  check_slab(slab);
  const std::int64_t bytes = slab_.size_bytes(ref);
  counters_.count_in(bytes);
  if (buffered_bytes_ + bytes > rcvbuf_bytes_) {
    counters_.count_drop(bytes);
    slab_.retire(ref);
    return;
  }
  buffered_bytes_ += bytes;

  if (gro_window_.is_zero()) {
    // Wakeups are never cancelled, so the record can be slotless.
    loop_.post_drain_at(loop_.now() + os_.draw_wakeup_latency(),
                        wakeup_channel_, ref);
    return;
  }

  // GRO: coalesce everything arriving within the window of the first
  // unflushed packet; one wakeup delivers the whole batch.
  gro_batch_.push_back(ref);
  if (!gro_timer_.pending()) {
    gro_timer_ = loop_.schedule_at<&UdpReceiver::flush>(
        loop_.now() + gro_window_ + os_.draw_wakeup_latency(),
        sim::EventClass::kWakeup, this);
  }
}

void UdpReceiver::release(net::PacketSlab::Ref ref) {
  const std::int64_t bytes = slab_.size_bytes(ref);
  buffered_bytes_ -= bytes;
  counters_.count_out(bytes);
  QUICSTEPS_TRACE_SPAN(trace_bus_, obs::TraceStage::kDelivery,
                       trace_component_, loop_.now(), slab_, ref);
  hand_off(sink_, ref);
}

void UdpReceiver::drain_wakeup(void* self, std::uint32_t ref) {
  UdpReceiver* rx = static_cast<UdpReceiver*>(self);
  ++rx->wakeups_;
  rx->release(ref);
}

void UdpReceiver::flush() {
  ++wakeups_;
  std::vector<net::PacketSlab::Ref> batch;
  batch.swap(gro_batch_);
  for (const net::PacketSlab::Ref ref : batch) release(ref);
  // Hand the capacity back for the next window, unless a re-entrant
  // delivery has already started a new batch.
  batch.clear();
  if (gro_batch_.empty()) gro_batch_.swap(batch);
}

}  // namespace quicsteps::kernel
