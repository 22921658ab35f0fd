// User-space timer model.
//
// Stack event loops do not see the simulator's perfect clock: when an
// application asks to wake at T, the actual wakeup is quantized to the
// loop's timer granularity and lands late by a drawn slack. This is the
// mechanism behind the paper's observation that purely user-space pacing
// quality depends on the implementation's timer discipline (coarse-timer
// picoquic bursts vs. its fine-grained BBR path).
#pragma once

#include <cstdint>

#include "kernel/os_model.hpp"
#include "sim/event_loop.hpp"

namespace quicsteps::kernel {

class TimerService {
 public:
  struct Config {
    /// Requested wakeups are rounded up to a multiple of this granularity
    /// *relative to the request instant* (epoll_wait-style ms timeouts).
    /// Zero means no quantization (timerfd with nanosecond arguments).
    sim::Duration granularity = sim::Duration::zero();
    /// Additional late-firing slack drawn uniformly in [0, slack_max].
    sim::Duration slack_max = sim::Duration::micros(30);
  };

  TimerService(sim::EventLoop& loop, OsModel& os, Config config)
      : loop_(loop), os_(os), config_(config) {}

  /// Arms a one-shot timer for `at`: `fn(ctx, 0)` runs at the OS-adjusted
  /// instant (loop().now() tells the callback when). Returns a cancellable
  /// handle.
  sim::EventHandle arm(sim::Time at, sim::DrainFn fn, void* ctx) {
    return loop_.schedule_at(adjusted_fire_time(at), sim::EventClass::kTimer,
                             fn, ctx);
  }

  /// The instant a wakeup requested for `at` would actually fire.
  sim::Time adjusted_fire_time(sim::Time at) {
    const sim::Time now = loop_.now();
    if (at < now) at = now;
    // The never-firing sentinel: rounding must not move (or overflow) it.
    if (at.is_infinite()) return at;
    sim::Time fire = at;
    const sim::Duration gran = config_.granularity;
    if (gran > sim::Duration::zero()) {
      // epoll-style: the app computes a timeout and rounds it up to whole
      // granules; a zero remainder still costs one granule when the
      // deadline is not "now" (the loop cannot wake mid-granule).
      // Ceil as div-then-round: `(req + g - 1)` would overflow int64 for
      // deadlines near the far end of the epoch.
      const std::int64_t g = gran.ns();
      const std::int64_t req = (at - now).ns();
      const std::int64_t granules = req / g + (req % g != 0 ? 1 : 0);
      fire = now + sim::Duration::nanos(granules * g);
    }
    fire += os_.rng().uniform_duration(sim::Duration::zero(), config_.slack_max);
    return fire;
  }

  const Config& config() const { return config_; }
  sim::EventLoop& loop() { return loop_; }

 private:
  sim::EventLoop& loop_;
  OsModel& os_;
  Config config_;
};

}  // namespace quicsteps::kernel
