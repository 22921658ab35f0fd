#include "kernel/qdisc_etf.hpp"

namespace quicsteps::kernel {

void EtfQdisc::deliver_ref(net::PacketSlab& slab, net::PacketSlab::Ref ref) {
  note_arrival(slab, ref);

  const sim::Time now = loop_.now();
  // The txtime is the one field ETF borrows.
  const net::Packet& pkt = slab_.at(ref);
  if (!pkt.has_txtime) {
    // ETF refuses packets without a timestamp (EINVAL on the real qdisc);
    // we count them as drops so misconfiguration is visible.
    drop(ref);
    return;
  }
  const sim::Time txtime = pkt.txtime;
  if (txtime < now) {
    ++late_drops_;
    drop(ref);
    return;
  }
  if (static_cast<std::int64_t>(timed_.size()) >= config_.limit_packets) {
    drop(ref);
    return;
  }

  timed_.push(txtime, ref);
  arm_watchdog();
}

void EtfQdisc::arm_watchdog() {
  if (timed_.empty()) return;
  const sim::Time head = timed_.head();
  if (watchdog_.pending() && watchdog_at_ <= head) return;
  watchdog_.cancel();
  watchdog_at_ = head;
  // Dequeue `delta` ahead of the head's txtime (never in the past).
  const sim::Time dequeue = sim::max(loop_.now(), head - config_.delta);
  watchdog_ = loop_.schedule_at<&EtfQdisc::on_watchdog>(
      dequeue, sim::EventClass::kQueue, this);
}

void EtfQdisc::on_watchdog() {
  const sim::Time now = loop_.now();
  // Everything entering its delta window leaves towards the driver now.
  while (!timed_.empty() && timed_.head() - config_.delta <= now) {
    const net::PacketSlab::Ref ref = timed_.pop();
    // Kernel + driver path consumes a variable slice of the delta window;
    // the packet reaches the NIC after it. Without LaunchTime the NIC
    // transmits on arrival, so this spread is the ETF precision the paper
    // measures; with LaunchTime the NIC clips early arrivals to txtime.
    const sim::Duration path = os_.rng().normal_duration(
        config_.driver_path_mean, config_.driver_path_stddev,
        sim::Duration::micros(5));
    const sim::Time release = sim::max(now + path, last_release_);
    last_release_ = release;
    loop_.schedule_at<&EtfQdisc::on_release>(
        release, sim::EventClass::kQueue, this, ref);
  }
  watchdog_at_ = sim::Time::infinite();
  arm_watchdog();
}

}  // namespace quicsteps::kernel
