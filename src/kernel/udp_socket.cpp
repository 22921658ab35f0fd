#include "kernel/udp_socket.hpp"

namespace quicsteps::kernel {

void UdpSocket::inject(net::Packet pkt) {
  pkt.kernel_entry_time = loop_.now();
  counters_.count_in(pkt.size_bytes);
  counters_.count_out(pkt.size_bytes);
  QUICSTEPS_TRACE_SPAN(trace_bus_, obs::TraceStage::kSocketWrite,
                       trace_component_, pkt.kernel_entry_time, pkt);
  if (egress_ != nullptr) egress_->deliver(std::move(pkt));
}

sim::Duration UdpSocket::sendmsg(net::Packet pkt) {
  ++syscalls_;
  inject(std::move(pkt));
  return os_.draw_syscall_cost();
}

sim::Duration UdpSocket::sendmsg_gso(std::vector<net::Packet> segments,
                                     net::DataRate gso_pacing_rate) {
  ++syscalls_;
  // Draw a recycled buffer from the slab pool (the NIC returns husks once
  // it has segmented them); only the first bursts of a run allocate.
  std::shared_ptr<std::vector<net::Packet>> buffer = slab_.take_gso_buffer();
  if (buffer == nullptr) {
    buffer = std::make_shared<std::vector<net::Packet>>();
  }
  *buffer = std::move(segments);
  net::Packet carrier =
      make_gso_buffer(std::move(buffer), next_gso_id_++, gso_pacing_rate);
  inject(std::move(carrier));
  // One syscall regardless of segment count — this is GSO's CPU win.
  return os_.draw_syscall_cost();
}

sim::Duration UdpSocket::sendmmsg(std::vector<net::Packet> packets) {
  ++syscalls_;
  for (auto& pkt : packets) {
    inject(std::move(pkt));
  }
  // One kernel entry regardless of message count — the kernel loops over
  // the messages inside the syscall.
  return os_.draw_syscall_cost();
}

void UdpReceiver::deliver(net::Packet pkt) {
  counters_.count_in(pkt.size_bytes);
  if (buffered_bytes_ + pkt.size_bytes > rcvbuf_bytes_) {
    counters_.count_drop(pkt.size_bytes);
    return;
  }
  buffered_bytes_ += pkt.size_bytes;
  pkt.delivery_time = loop_.now();

  if (gro_window_.is_zero()) {
    // Wakeups are never cancelled, so the record can be slotless.
    loop_.post_drain_at(loop_.now() + os_.draw_wakeup_latency(),
                        wakeup_channel_, slab_.put(std::move(pkt)));
    return;
  }

  // GRO: coalesce everything arriving within the window of the first
  // unflushed packet; one wakeup delivers the whole batch.
  gro_batch_.push_back(std::move(pkt));
  if (!gro_timer_.pending()) {
    gro_timer_ =
        loop_.schedule_after(gro_window_ + os_.draw_wakeup_latency(),
                             sim::EventClass::kWakeup, [this] { flush(); });
  }
}

void UdpReceiver::drain_wakeup(void* self, std::uint32_t ref) {
  UdpReceiver* rx = static_cast<UdpReceiver*>(self);
  net::Packet pkt = rx->slab_.take(ref);
  ++rx->wakeups_;
  rx->buffered_bytes_ -= pkt.size_bytes;
  rx->counters_.count_out(pkt.size_bytes);
  QUICSTEPS_TRACE_SPAN(rx->trace_bus_, obs::TraceStage::kDelivery,
                       rx->trace_component_, rx->loop_.now(), pkt);
  if (rx->handler_) rx->handler_(std::move(pkt));
}

void UdpReceiver::flush() {
  ++wakeups_;
  std::vector<net::Packet> batch;
  batch.swap(gro_batch_);
  for (auto& pkt : batch) {
    buffered_bytes_ -= pkt.size_bytes;
    counters_.count_out(pkt.size_bytes);
    QUICSTEPS_TRACE_SPAN(trace_bus_, obs::TraceStage::kDelivery,
                         trace_component_, loop_.now(), pkt);
    if (handler_) handler_(std::move(pkt));
  }
}

}  // namespace quicsteps::kernel
