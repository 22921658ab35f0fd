// Leaky-bucket pacer: picoquic style, as RFC 9002 section 7.7 suggests.
//
// Credit (tokens) refills at the pacing rate up to `depth` bytes. A packet
// may go as soon as the bucket covers it. The defining property: after an
// idle period the bucket is full, so a whole depth's worth of packets
// drains back-to-back — which, combined with a coarse application timer,
// produces picoquic's 16-17 packet bursts under loss-based CCAs (paper
// Section 4.1). picoquic's BBR path uses a shallow bucket instead, giving
// near-perfect spacing from pure user space.
#pragma once

#include "pacing/pacer.hpp"

namespace quicsteps::pacing {

class LeakyBucketPacer final : public Pacer {
 public:
  explicit LeakyBucketPacer(std::int64_t depth_bytes)
      : depth_(depth_bytes), tokens_(static_cast<double>(depth_bytes)) {}

  sim::Time earliest_send_time(sim::Time now, std::int64_t bytes,
                               net::DataRate rate) override;
  void on_packet_sent(sim::Time at, std::int64_t bytes,
                      net::DataRate rate) override;
  const char* name() const override { return "leaky-bucket"; }

  double tokens() const { return tokens_; }
  std::int64_t depth() const { return depth_; }
  void set_depth(std::int64_t depth_bytes);

 private:
  void refill(sim::Time now, net::DataRate rate);

  std::int64_t depth_;
  double tokens_;
  sim::Time last_update_;
  bool started_ = false;
};

}  // namespace quicsteps::pacing
