// Kernel TCP (with TLS payload accounting) — the paper's nginx/wget
// baseline.
//
// Differences from the QUIC model that matter for the comparison:
//   * lives "in the kernel": no syscall cost, timer slack, or event-loop
//     batching on the send path — ACK clocking is immediate;
//   * cumulative ACK + SACK, retransmissions reuse the sequence number;
//   * no pacing (Debian's default CUBIC + FQ_CoDel does not pace, as the
//     paper's background section points out); burst size is bounded by TSQ
//     (TCP Small Queues) — the sender never dumps more than a couple of
//     segments into the qdisc at once;
//   * classic HyStart: slow start exits as soon as the delay increase is
//     detected (no multi-round CSS), which is why TCP's slow start barely
//     overshoots and Table 1 shows ~16 dropped packets against the QUIC
//     stacks' hundreds.
#pragma once

#include <cstdint>
#include <deque>
#include <map>

#include "cc/cc_factory.hpp"
#include "net/packet.hpp"
#include "quic/rtt_estimator.hpp"

namespace quicsteps::tcp {

/// Wire bytes of a full segment (IP + TCP + TLS record overhead inside a
/// 1500 B MTU) and the TLS application payload it carries.
inline constexpr std::int64_t kSegmentSize = 1500;
inline constexpr std::int64_t kPayloadPerSegment = 1402;
inline constexpr std::int64_t kAckSegmentSize = 66;

class TcpConnection {
 public:
  struct Config {
    std::int64_t total_payload_bytes = 10 * 1024 * 1024;
    std::uint32_t flow = 2;
    cc::CcConfig cc;  // algorithm; HyStart handled TCP-style below
  };

  struct Stats {
    std::int64_t segments_sent = 0;
    std::int64_t segments_retransmitted = 0;
    std::int64_t segments_declared_lost = 0;
    std::int64_t rto_fired = 0;
    sim::Time completion_time = sim::Time::infinite();
  };

  explicit TcpConnection(Config config);

  bool has_data_to_send() const;
  bool congestion_blocked() const;
  /// Builds the next segment (retransmission first).
  net::Packet build_segment(sim::Time now);
  void on_ack(const net::TransportAck& ack, sim::Time now);

  sim::Time next_timer_deadline() const;
  void on_timer(sim::Time now);

  bool transfer_complete() const {
    return cumulative_acked_ >= static_cast<std::uint64_t>(total_segments_);
  }
  const Stats& stats() const { return stats_; }
  const cc::CongestionController& controller() const { return *cc_; }
  const quic::RttEstimator& rtt() const { return rtt_; }
  std::int64_t bytes_in_flight() const { return bytes_in_flight_; }
  std::int64_t cwnd_bytes() const { return cc_->cwnd_bytes(); }

 private:
  struct Outstanding {
    sim::Time time_sent;
    std::int64_t bytes = kSegmentSize;
    bool sacked = false;
    bool retransmitted = false;
  };

  void run_loss_detection(sim::Time now);

  Config config_;
  std::unique_ptr<cc::CongestionController> cc_;
  quic::RttEstimator rtt_;

  std::int64_t total_segments_;
  std::uint64_t next_seq_ = 0;          // next NEW segment index
  std::uint64_t cumulative_acked_ = 0;  // segments [0, cum) delivered
  std::uint64_t highest_sacked_ = 0;
  std::map<std::uint64_t, Outstanding> outstanding_;
  std::deque<std::uint64_t> retransmit_queue_;
  std::int64_t bytes_in_flight_ = 0;
  std::uint64_t next_packet_id_ = 1;

  sim::Time loss_timer_ = sim::Time::infinite();
  int rto_count_ = 0;

  Stats stats_;
};

}  // namespace quicsteps::tcp
