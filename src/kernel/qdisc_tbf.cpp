#include "kernel/qdisc_tbf.hpp"

#include <algorithm>

namespace quicsteps::kernel {

TbfQdisc::TbfQdisc(sim::EventLoop& loop, net::PacketSlab& slab, Config config,
                   net::PacketSink* downstream)
    : Qdisc(loop, slab, "tbf", downstream),
      config_(config),
      tokens_bytes_(static_cast<double>(config.burst_bytes)),
      last_refill_(loop.now()) {}

void TbfQdisc::deliver_ref(net::PacketSlab& slab, net::PacketSlab::Ref ref) {
  note_arrival(slab, ref);
  const std::int64_t bytes = slab_.size_bytes(ref);
  if (backlog_bytes_ + bytes > config_.limit_bytes) {
    drop(ref);  // drop-tail retires the ref
    return;
  }
  backlog_bytes_ += bytes;
  queue_.push_back(ref);
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
  // check reads the slab's size lane, and the released ref goes on
  // downstream without the packet being touched.
  while (!queue_.empty()) {
    const net::PacketSlab::Ref ref = queue_.front();
    const std::int64_t bytes = slab_.size_bytes(ref);
    if (tokens_bytes_ < static_cast<double>(bytes)) break;
    queue_.pop_front();
    tokens_bytes_ -= static_cast<double>(bytes);
    backlog_bytes_ -= bytes;
    forward(ref);
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
