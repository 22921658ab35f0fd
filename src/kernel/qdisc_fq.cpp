#include "kernel/qdisc_fq.hpp"

#include <algorithm>
#include <utility>

namespace quicsteps::kernel {

void FqQdisc::deliver(net::Packet pkt) {
  note_arrival(pkt);

  if (static_cast<std::int64_t>(heap_.size()) >= config_.limit_packets) {
    drop(pkt);
    return;
  }

  const sim::Time now = loop_.now();
  if (!pkt.has_txtime || pkt.txtime <= now) {
    // No timestamp, or timestamp already due: fq transmits immediately.
    forward(std::move(pkt));
    return;
  }
  if (config_.horizon_drop && pkt.txtime > now + config_.horizon) {
    drop(pkt);
    return;
  }

  // Limit and horizon drops happen before the slab: a dropped packet
  // never takes a slot.
  const sim::Time at = pkt.txtime;
  heap_.push_back({at, next_seq_++, slab_.put(std::move(pkt))});
  std::push_heap(heap_.begin(), heap_.end(), &FqQdisc::releases_later);
  arm_watchdog();
}

void FqQdisc::arm_watchdog() {
  if (heap_.empty()) return;
  const sim::Time head = heap_.front().at;
  if (watchdog_.pending() && watchdog_at_ <= head) return;
  watchdog_.cancel();
  // hrtimer wakeup: fires at the head timestamp plus kernel slack. All
  // packets due by then leave in one softirq.
  watchdog_at_ = head;
  const sim::Time fire = head + os_.draw_kernel_release_delay();
  watchdog_ = loop_.schedule_at<&FqQdisc::on_watchdog>(
      fire, sim::EventClass::kQueue, this);
}

void FqQdisc::on_watchdog() {
  const sim::Time now = loop_.now();
  while (!heap_.empty() && heap_.front().at <= now) {
    std::pop_heap(heap_.begin(), heap_.end(), &FqQdisc::releases_later);
    const net::PacketSlab::Ref ref = heap_.back().ref;
    heap_.pop_back();
    forward(slab_.take(ref));
  }
  watchdog_at_ = sim::Time::infinite();
  arm_watchdog();
}

}  // namespace quicsteps::kernel
