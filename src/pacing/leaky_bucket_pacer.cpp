#include "pacing/leaky_bucket_pacer.hpp"

#include <algorithm>

namespace quicsteps::pacing {

void LeakyBucketPacer::set_depth(std::int64_t depth_bytes) {
  depth_ = depth_bytes;
  tokens_ = std::min(tokens_, static_cast<double>(depth_));
}

void LeakyBucketPacer::refill(sim::Time now, net::DataRate rate) {
  if (!started_) {
    last_update_ = now;
    started_ = true;
    return;
  }
  if (now <= last_update_) return;
  tokens_ += rate.bytes_per_second_f() * (now - last_update_).to_seconds();
  tokens_ = std::min(tokens_, static_cast<double>(depth_));
  last_update_ = now;
}

sim::Time LeakyBucketPacer::earliest_send_time(sim::Time now,
                                               std::int64_t bytes,
                                               net::DataRate rate) {
  if (rate.is_zero() || rate.is_infinite()) return now;
  refill(now, rate);
  const double need = static_cast<double>(bytes) - tokens_;
  if (need <= 0) return now;
  ++stats_.deferrals;
  const double seconds = need / rate.bytes_per_second_f();
  return now + sim::Duration::seconds_f(seconds);
}

void LeakyBucketPacer::on_packet_sent(sim::Time at, std::int64_t bytes,
                                      net::DataRate rate) {
  ++stats_.packets_released;
  if (rate.is_zero() || rate.is_infinite()) return;
  refill(at, rate);
  tokens_ -= static_cast<double>(bytes);
  // The bucket may dip below zero when the caller sends slightly early
  // (timer slack); the deficit self-repays through refill.
  tokens_ = std::max(tokens_, -static_cast<double>(depth_));
}

}  // namespace quicsteps::pacing
