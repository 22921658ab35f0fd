#include "kernel/qdisc_tbf.hpp"

#include <algorithm>
#include <utility>

namespace quicsteps::kernel {

TbfQdisc::TbfQdisc(sim::EventLoop& loop, net::PacketSlab& slab, Config config,
                   net::PacketSink* downstream)
    : Qdisc(loop, "tbf", downstream),
      config_(config),
      slab_(slab),
      tokens_bytes_(static_cast<double>(config.burst_bytes)),
      last_refill_(loop.now()) {}

void TbfQdisc::deliver(net::Packet pkt) {
  note_arrival(pkt);
  if (backlog_bytes_ + pkt.size_bytes > config_.limit_bytes) {
    // Drop-tail happens before the slab: a dropped packet never occupies
    // a slot, so a partially-dropped train leaves no stale refs behind.
    drop(pkt);
    return;
  }
  backlog_bytes_ += pkt.size_bytes;
  queue_.push_back(slab_.put(std::move(pkt)));
  try_release();
}

void TbfQdisc::refill_tokens(sim::Time now) {
  const sim::Duration elapsed = now - last_refill_;
  last_refill_ = now;
  tokens_bytes_ += config_.rate.bytes_per_second_f() * elapsed.to_seconds();
  tokens_bytes_ =
      std::min(tokens_bytes_, static_cast<double>(config_.burst_bytes));
}

void TbfQdisc::try_release() {
  const sim::Time now = loop_.now();
  refill_tokens(now);

  // One refill covers the whole release train; the head-of-line token
  // check reads the slab's size lane, and the packet itself is only
  // touched (moved out once) when it actually leaves.
  while (!queue_.empty() &&
         tokens_bytes_ >=
             static_cast<double>(slab_.size_bytes(queue_.front()))) {
    const net::PacketSlab::Ref ref = queue_.front();
    queue_.pop_front();
    net::Packet pkt = slab_.take(ref);
    tokens_bytes_ -= static_cast<double>(pkt.size_bytes);
    backlog_bytes_ -= pkt.size_bytes;
    forward(std::move(pkt));
  }

  if (queue_.empty()) {
    wake_.cancel();
    return;
  }
  // Sleep until the bucket covers the head packet.
  const double deficit =
      static_cast<double>(slab_.size_bytes(queue_.front())) - tokens_bytes_;
  const double seconds = deficit / config_.rate.bytes_per_second_f();
  const sim::Time due =
      now + sim::Duration::nanos(static_cast<std::int64_t>(seconds * 1e9) + 1);
  if (wake_.pending()) return;  // a wakeup is already scheduled
  wake_ = loop_.schedule_at<&TbfQdisc::try_release>(
      due, sim::EventClass::kQueue, this);
}

}  // namespace quicsteps::kernel
