#include "kernel/qdisc_fq.hpp"

namespace quicsteps::kernel {

void FqQdisc::deliver_ref(net::PacketSlab& slab, net::PacketSlab::Ref ref) {
  note_arrival(slab, ref);

  if (static_cast<std::int64_t>(held_.size()) >= config_.limit_packets) {
    drop(ref);
    return;
  }

  const sim::Time now = loop_.now();
  // The txtime is the one field FQ borrows; an untimed packet is due now.
  const net::Packet& pkt = slab_.at(ref);
  const sim::Time txtime = pkt.has_txtime ? pkt.txtime : now;
  if (txtime <= now) {
    // No timestamp, or timestamp already due: fq transmits immediately.
    forward(ref);
    return;
  }
  if (config_.horizon_drop && txtime > now + config_.horizon) {
    drop(ref);
    return;
  }

  held_.push(txtime, ref);
  arm_watchdog();
}

void FqQdisc::arm_watchdog() {
  if (held_.empty()) return;
  const sim::Time head = held_.head();
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
  while (!held_.empty() && held_.head() <= now) {
    forward(held_.pop());
  }
  watchdog_at_ = sim::Time::infinite();
  arm_watchdog();
}

}  // namespace quicsteps::kernel
