// NewReno congestion controller (RFC 9002 Appendix B).
#pragma once

#include "cc/congestion_controller.hpp"

namespace quicsteps::cc {

class NewReno final : public CongestionController {
 public:
  void on_packet_sent(sim::Time now, std::uint64_t pn, std::int64_t bytes,
                      std::int64_t bytes_in_flight) override;
  void on_ack(const AckSample& ack) override;
  void on_loss(const LossSample& loss) override;

  std::int64_t cwnd_bytes() const override { return cwnd_; }
  bool in_slow_start() const override { return cwnd_ < ssthresh_; }
  const char* name() const override { return "newreno"; }
  std::string debug_state() const override;

  std::int64_t ssthresh_bytes() const { return ssthresh_; }
  bool in_recovery(sim::Time sent_time) const {
    return sent_time <= recovery_start_;
  }

 private:
  void on_congestion_event(sim::Time now, sim::Time sent_time);

  std::int64_t cwnd_ = kInitialWindow;
  std::int64_t ssthresh_ = std::int64_t{1} << 60;
  sim::Time recovery_start_ = sim::Time::zero() - sim::Duration::nanos(1);
};

}  // namespace quicsteps::cc
