#include "quic/rtt_estimator.hpp"

namespace quicsteps::quic {

void RttEstimator::update(sim::Duration latest, sim::Duration ack_delay) {
  latest_ = latest;
  min_ = sim::min(min_, latest);

  // Clamp the peer-reported delay and only subtract it when the result
  // stays above min_rtt (RFC 9002 §5.3).
  ack_delay = sim::min(ack_delay, kMaxAckDelay);
  sim::Duration adjusted = latest;
  if (adjusted - ack_delay >= min_) adjusted = adjusted - ack_delay;

  if (!has_samples_) {
    smoothed_ = adjusted;
    rttvar_ = adjusted / 2;
    has_samples_ = true;
    return;
  }
  const sim::Duration diff = smoothed_ > adjusted ? smoothed_ - adjusted
                                                  : adjusted - smoothed_;
  rttvar_ = (rttvar_ * 3 + diff) / 4;
  smoothed_ = (smoothed_ * 7 + adjusted) / 8;
}

sim::Duration RttEstimator::pto_interval() const {
  return smoothed_ + sim::max(rttvar_ * 4, kGranularity) + kMaxAckDelay;
}

}  // namespace quicsteps::quic
