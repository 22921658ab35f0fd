// Pacing strategies.
//
// The paper observes that all three stacks compute the pacing *rate* the
// same way but differ in who enforces release times and how credit is
// accumulated:
//   * interval pacing (quiche, ngtcp2): each packet's release time is the
//     previous release plus size/rate — no credit, no bursts;
//   * leaky bucket (picoquic, as RFC 9002 suggests): credit accrues while
//     idle up to the bucket depth, so a coarse application timer drains a
//     multi-packet burst on every wakeup — the 16-17 packet trains in
//     Figure 3.
//
// A pacer answers "when may a packet of N bytes go?" and is told when one
// actually went. The enforcement point (kernel qdisc vs. app timer) is the
// stack model's business.
#pragma once

#include <cstdint>
#include <memory>

#include "net/data_rate.hpp"
#include "sim/time.hpp"

namespace quicsteps::pacing {

class Pacer {
 public:
  /// Release bookkeeping every implementation maintains: how many packets
  /// the pacer was told went out, and how often it asked the caller to
  /// wait (earliest_send_time strictly after `now`).
  struct Stats {
    std::int64_t packets_released = 0;
    std::int64_t deferrals = 0;
  };

  virtual ~Pacer() = default;

  /// Earliest instant a packet of `bytes` may be released given the current
  /// pacing `rate`. May be in the past relative to `now` only when pacing
  /// imposes no wait.
  virtual sim::Time earliest_send_time(sim::Time now, std::int64_t bytes,
                                       net::DataRate rate) = 0;

  /// Records a (planned or actual) release at `at`.
  virtual void on_packet_sent(sim::Time at, std::int64_t bytes,
                              net::DataRate rate) = 0;

  virtual const char* name() const = 0;

  /// Cumulative over the connection's lifetime.
  const Stats& stats() const { return stats_; }

 protected:
  Stats stats_;
};

enum class PacerKind : std::uint8_t { kInterval, kLeakyBucket };

struct PacerConfig {
  PacerKind kind = PacerKind::kInterval;
  /// Leaky bucket depth in bytes (credit ceiling).
  std::int64_t bucket_depth_bytes = 16 * 1500;
  /// Interval pacer: cap on how far the release schedule may run ahead of
  /// the clock. quiche releases in quanta and catches the schedule up, so
  /// its txtimes never drift more than a few milliseconds ahead — this cap
  /// models that and bounds the baseline precision spread (Section 4.4).
  sim::Duration max_schedule_ahead = sim::Duration::millis(3);
};

std::unique_ptr<Pacer> make_pacer(const PacerConfig& config);

}  // namespace quicsteps::pacing
