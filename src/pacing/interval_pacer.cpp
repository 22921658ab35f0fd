#include "pacing/interval_pacer.hpp"

namespace quicsteps::pacing {

sim::Time IntervalPacer::earliest_send_time(sim::Time now, std::int64_t,
                                            net::DataRate rate) {
  if (!started_ || rate.is_zero() || rate.is_infinite()) return now;
  // No credit accumulates: a schedule that fell behind restarts at now.
  // A schedule that ran ahead is clamped (quantum release + catch-up).
  const sim::Time t =
      sim::min(sim::max(next_allowed_, now), now + max_ahead_);
  if (t > now) ++stats_.deferrals;
  return t;
}

void IntervalPacer::on_packet_sent(sim::Time at, std::int64_t bytes,
                                   net::DataRate rate) {
  ++stats_.packets_released;
  if (rate.is_zero() || rate.is_infinite()) {
    next_allowed_ = at;
    started_ = true;
    return;
  }
  const sim::Time base = started_ ? sim::max(at, next_allowed_) : at;
  next_allowed_ =
      sim::min(base + rate.transmit_time(bytes), at + max_ahead_);
  started_ = true;
}

}  // namespace quicsteps::pacing
