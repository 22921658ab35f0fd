// Interval pacer: quiche / ngtcp2 style.
//
// Each packet's release time is the previous packet's release time plus
// size/rate. There is no credit: after an idle period the schedule simply
// restarts at "now". quiche turns these release times into SO_TXTIME
// timestamps for the kernel; ngtcp2 expects the application to sleep until
// them.
#pragma once

#include "pacing/pacer.hpp"

namespace quicsteps::pacing {

class IntervalPacer final : public Pacer {
 public:
  IntervalPacer() = default;
  explicit IntervalPacer(sim::Duration max_schedule_ahead)
      : max_ahead_(max_schedule_ahead) {}

  sim::Time earliest_send_time(sim::Time now, std::int64_t bytes,
                               net::DataRate rate) override;
  void on_packet_sent(sim::Time at, std::int64_t bytes,
                      net::DataRate rate) override;
  const char* name() const override { return "interval"; }

 private:
  sim::Duration max_ahead_ = sim::Duration::millis(3);
  sim::Time next_allowed_;  // zero = fresh schedule
  bool started_ = false;
};

}  // namespace quicsteps::pacing
