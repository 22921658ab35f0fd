// Operating-system timing model.
//
// QUIC pays for running in user space: every sendmsg is a syscall, timers
// fire with slack, and the scheduler can delay a wakeup. These are precisely
// the effects the paper studies, so they are modelled explicitly and drawn
// from a seeded generator. The defaults approximate a tuned low-latency
// Linux host (the paper used a 6.1 RT kernel); experiments can tighten or
// loosen them.
#pragma once

#include <cstdint>

#include "sim/random.hpp"
#include "sim/time.hpp"

namespace quicsteps::kernel {

struct OsTimingConfig {
  /// Cost of a sendmsg/sendmmsg syscall (per call, not per packet): base
  /// plus exponential jitter. GSO amortizes this over many packets.
  sim::Duration syscall_base = sim::Duration::micros(3);
  sim::Duration syscall_jitter_mean = sim::Duration::micros(1);
  sim::Duration syscall_jitter_cap = sim::Duration::micros(30);

  /// High-resolution kernel timer (hrtimer) slack: applies to qdisc watchdog
  /// wakeups (FQ/ETF release timers).
  sim::Duration hrtimer_slack_mean = sim::Duration::micros(30);
  sim::Duration hrtimer_slack_stddev = sim::Duration::micros(55);

  /// Chance of a softirq/scheduling hiccup delaying a kernel release (its
  /// size is drawn in draw_kernel_release_delay).
  double softirq_delay_chance = 0.08;

  /// Wakeup latency for a user-space thread blocked in epoll/select when a
  /// datagram arrives.
  sim::Duration wakeup_latency_mean = sim::Duration::micros(8);
  sim::Duration wakeup_latency_stddev = sim::Duration::micros(5);
};

class OsModel {
 public:
  OsModel(OsTimingConfig config, sim::Rng rng)
      : config_(config), rng_(std::move(rng)) {}

  /// Duration the calling thread spends inside one send syscall.
  sim::Duration draw_syscall_cost();

  /// Extra delay the kernel adds when releasing a packet from an
  /// hrtimer-driven qdisc (FQ, software ETF).
  sim::Duration draw_kernel_release_delay();

  /// Latency between datagram arrival and the user-space loop observing it.
  sim::Duration draw_wakeup_latency();

  const OsTimingConfig& config() const { return config_; }
  sim::Rng& rng() { return rng_; }

 private:
  OsTimingConfig config_;
  sim::Rng rng_;
};

}  // namespace quicsteps::kernel
