// RTT estimation per RFC 9002 Section 5.
#pragma once

#include "sim/time.hpp"

namespace quicsteps::quic {

/// RFC 9002 max_ack_delay: the client's delayed-ACK deadline, and the bound
/// both transports' RTT updates and PTO computations assume of the peer.
inline constexpr sim::Duration kMaxAckDelay = sim::Duration::millis(25);
/// RFC 9002 kGranularity: the timer granularity floor of the PTO and the
/// loss delay.
inline constexpr sim::Duration kGranularity = sim::Duration::millis(1);

class RttEstimator {
 public:
  /// Feeds one RTT sample; `ack_delay` is the peer-reported delay, clamped
  /// to kMaxAckDelay and applied per RFC 9002 §5.3 (subtracted only when it
  /// keeps the sample >= min).
  void update(sim::Duration latest, sim::Duration ack_delay);

  bool has_samples() const { return has_samples_; }
  sim::Duration latest() const { return latest_; }
  sim::Duration smoothed() const { return smoothed_; }
  sim::Duration rttvar() const { return rttvar_; }
  sim::Duration min() const { return min_; }

  /// PTO interval per RFC 9002 §6.2.1 (excluding the backoff multiplier).
  sim::Duration pto_interval() const;

 private:
  bool has_samples_ = false;
  sim::Duration latest_;
  sim::Duration smoothed_ = sim::Duration::millis(333);  // kInitialRtt
  sim::Duration rttvar_ = sim::Duration::millis(333) / 2;
  sim::Duration min_ = sim::Duration::infinite();
};

}  // namespace quicsteps::quic
