#include "kernel/os_model.hpp"

namespace quicsteps::kernel {

namespace {
// A softirq/scheduling hiccup's extra release delay: exponential with
// this mean, capped.
constexpr sim::Duration kSoftirqDelayMean = sim::Duration::micros(250);
constexpr sim::Duration kSoftirqDelayCap = sim::Duration::millis(2);
}  // namespace

sim::Duration OsModel::draw_syscall_cost() {
  return config_.syscall_base +
         rng_.exponential_duration(config_.syscall_jitter_mean,
                                   config_.syscall_jitter_cap);
}

sim::Duration OsModel::draw_kernel_release_delay() {
  sim::Duration d = rng_.normal_duration(config_.hrtimer_slack_mean,
                                         config_.hrtimer_slack_stddev);
  if (rng_.chance(config_.softirq_delay_chance)) {
    d += rng_.exponential_duration(kSoftirqDelayMean, kSoftirqDelayCap);
  }
  return d;
}

sim::Duration OsModel::draw_wakeup_latency() {
  return rng_.normal_duration(config_.wakeup_latency_mean,
                              config_.wakeup_latency_stddev);
}

}  // namespace quicsteps::kernel
