// HyStart++ (RFC 9406): exit slow start before the first loss by watching
// for round-trip-time inflation, with a Conservative Slow Start (CSS)
// safeguard against spurious exits.
//
// Table 2 of the paper hinges on this algorithm: bursty (stock GSO) traffic
// inflates the RTT quickly and triggers an early exit (few drops, lower
// goodput); smooth (paced / GSO-off) traffic inflates the RTT slowly, slow
// start runs into the buffer limit, and losses are ~10x higher.
#pragma once

#include <cstdint>
#include <string>

#include "sim/time.hpp"

namespace quicsteps::cc {

class HystartPP {
 public:
  /// The two settings TCP tunes (RFC 9406 defaults here).
  struct Config {
    int n_rtt_sample = 8;  // samples per round before check
    int css_rounds = 5;    // rounds before confirming exit
  };

  enum class Phase : std::uint8_t { kSlowStart, kCss, kDone };

  HystartPP() : HystartPP(Config{}) {}
  explicit HystartPP(Config config) : config_(config) {}

  /// Called when a new round starts (the transport detects round edges via
  /// packet numbers: a round ends when the first packet sent in it is
  /// acked).
  void on_round_start();

  /// Feeds one RTT sample from an ACK. Callers watch the `done()` flag:
  /// once CSS confirms the delay increase (css_rounds rounds), done()
  /// becomes true and the caller sets ssthresh = cwnd.
  void on_rtt_sample(sim::Duration rtt);

  /// Loss ends the game regardless of phase.
  void on_congestion_event() { phase_ = Phase::kDone; }

  Phase phase() const { return phase_; }
  bool done() const { return phase_ == Phase::kDone; }
  /// Divisor to apply to slow-start cwnd growth (1 in slow start proper,
  /// kCssGrowthDivisor during CSS).
  int growth_divisor() const {
    return phase_ == Phase::kCss ? kCssGrowthDivisor : 1;
  }

  std::string debug_state() const;

 private:
  // RFC 9406 recommended constants (MIN_RTT_THRESH, MAX_RTT_THRESH,
  // CSS_GROWTH_DIVISOR).
  static constexpr sim::Duration kMinRttThresh = sim::Duration::millis(4);
  static constexpr sim::Duration kMaxRttThresh = sim::Duration::millis(16);
  static constexpr int kCssGrowthDivisor = 4;  // CSS grows cwnd at 1/4 rate

  sim::Duration eta() const;

  Config config_;
  Phase phase_ = Phase::kSlowStart;
  /// Round metric under evaluation (the min of the round's samples).
  sim::Duration round_metric() const;

  sim::Duration last_round_min_rtt_ = sim::Duration::infinite();
  sim::Duration current_round_min_rtt_ = sim::Duration::infinite();
  sim::Duration css_baseline_min_rtt_ = sim::Duration::infinite();
  int rtt_sample_count_ = 0;
  int css_round_count_ = 0;
};

}  // namespace quicsteps::cc
