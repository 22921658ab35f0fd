// Strong type for data rates, and the rate<->time arithmetic the whole
// simulator is built on (serialization delays, pacing intervals, token
// refill).
#pragma once

#include <cstdint>
#include <string>

#include "sim/time.hpp"

namespace quicsteps::net {

class DataRate {
 public:
  constexpr DataRate() = default;

  static constexpr DataRate bits_per_second(std::int64_t bps) {
    return DataRate(bps);
  }
  static constexpr DataRate megabits_per_second(std::int64_t mbps) {
    return DataRate(mbps * 1'000'000);
  }
  static constexpr DataRate gigabits_per_second(std::int64_t gbps) {
    return DataRate(gbps * 1'000'000'000);
  }
  static constexpr DataRate zero() { return DataRate(0); }
  static constexpr DataRate infinite() {
    return DataRate(std::int64_t{1} << 62);
  }

  /// Rate that moves `bytes` in `period` (0 if period is not positive).
  static DataRate bytes_per(std::int64_t bytes, sim::Duration period);

  constexpr std::int64_t bps() const { return bps_; }
  constexpr double mbps() const { return static_cast<double>(bps_) / 1e6; }
  constexpr double bytes_per_second_f() const {
    return static_cast<double>(bps_) / 8.0;
  }
  constexpr bool is_zero() const { return bps_ == 0; }
  constexpr bool is_infinite() const { return bps_ >= (std::int64_t{1} << 62); }

  /// Time to serialize `bytes` at this rate; zero for an infinite rate,
  /// Duration::infinite() for a zero rate and positive size.
  sim::Duration transmit_time(std::int64_t bytes) const;

  /// Bytes transferred in `d` at this rate (rounded down).
  std::int64_t bytes_in(sim::Duration d) const;

  constexpr DataRate operator*(double k) const {
    return DataRate(static_cast<std::int64_t>(static_cast<double>(bps_) * k));
  }
  constexpr DataRate operator+(DataRate o) const {
    return DataRate(bps_ + o.bps_);
  }
  constexpr auto operator<=>(const DataRate&) const = default;

  std::string to_string() const;

 private:
  constexpr explicit DataRate(std::int64_t bps) : bps_(bps) {}
  std::int64_t bps_ = 0;
};

}  // namespace quicsteps::net
