// Sender-side QUIC connection: one bulk stream (the paper's file download),
// packet numbering, ACK processing, RFC 9002 loss recovery, a pluggable
// congestion controller, and a pluggable pacer.
//
// The connection is deliberately passive about *when* packets go out: stack
// models (quiche/picoquic/ngtcp2 profiles) drive it, because the paper's
// findings are precisely about those driving disciplines. The connection
// answers "may I send?", builds packets, and digests ACKs and timers.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "cc/cc_factory.hpp"
#include "net/packet.hpp"
#include "obs/trace.hpp"
#include "pacing/pacer.hpp"
#include "quic/ack_manager.hpp"
#include "quic/frames.hpp"
#include "quic/loss_detection.hpp"
#include "quic/rtt_estimator.hpp"
#include "quic/sent_packet_map.hpp"
#include "sim/fifo_ring.hpp"

namespace quicsteps::quic {

/// A traced connection (set_trace, under its stack's component id)
/// publishes one obs::RecoverySample per ACK it processes and per loss it
/// declares.
class Connection : public obs::TraceSource {
 public:
  struct Config {
    std::int64_t total_payload_bytes = 10 * 1024 * 1024;
    std::uint32_t flow = 1;
    cc::CcConfig cc;
    pacing::PacerConfig pacer;
    /// Pacing-rate headroom over cwnd/srtt (the paper notes all stacks
    /// compute the rate the same way; RFC 9002 suggests ~1.25). The ngtcp2
    /// profile uses 1.0 (no headroom).
    double pacing_rate_factor = 1.25;
    /// Connection flow-control credit granted by the peer (MAX_DATA =
    /// consumed + credit). <=0 means effectively unlimited. Static,
    /// conservative credits cap throughput at credit/RTT — the mechanism
    /// behind the ngtcp2 example's low, perfectly stable goodput.
    std::int64_t flow_control_credit = 0;
    /// When true the connection starts with ZERO available bytes and an
    /// AppSource feeds availability over time (chunked / CBR workloads).
    bool app_limited_source = false;
  };

  struct Stats {
    std::int64_t packets_sent = 0;
    std::int64_t bytes_sent = 0;
    std::int64_t packets_declared_lost = 0;
    std::int64_t bytes_declared_lost = 0;
    std::int64_t packets_retransmitted = 0;
    std::int64_t acks_received = 0;
    std::int64_t pto_fired = 0;
    sim::Time completion_time = sim::Time::infinite();
  };

  explicit Connection(Config config);

  // --- send path ----------------------------------------------------------
  /// More stream data (new or retransmission) waits to be packetized.
  bool has_data_to_send() const;
  /// True when only the peer's MAX_DATA blocks further NEW data (a window
  /// update will unblock; retransmissions are never blocked).
  bool flow_control_blocked() const;
  /// True when cwnd blocks a full-sized packet right now. Never while a
  /// PTO probe is owed: probes bypass the window (RFC 9002 §6.2.4).
  bool congestion_blocked() const;
  /// Current pacing rate (infinite before the first RTT sample so the
  /// initial window leaves as the burst real stacks emit).
  net::DataRate pacing_rate() const;
  /// Earliest release instant the pacer permits for the next packet.
  sim::Time pacer_release_time(sim::Time now);

  /// Builds the next packet. `send_time` is when the packet is (planned to
  /// be) handed to the kernel; it is recorded as the CC/loss send time.
  /// `pacer_commit_time` is what the pacer schedule advances from — quiche
  /// commits the planned txtime, waiters commit the actual send instant.
  net::Packet build_packet(sim::Time send_time, sim::Time pacer_commit_time);

  /// Marks the sender application-limited (nothing more to send while the
  /// window still has room) — BBR discounts bandwidth samples from such
  /// periods.
  void set_app_limited() { app_limited_ = true; }

  /// Application data availability (app-limited workloads): only bytes
  /// below this watermark may be packetized. Defaults to the full payload
  /// (bulk transfer). Monotone; used by quic::AppSource for chunked/CBR
  /// workloads.
  void set_available_bytes(std::int64_t available) {
    available_bytes_ = std::max(available_bytes_, available);
  }
  std::int64_t available_bytes() const { return available_bytes_; }
  /// True when only data availability blocks sending (source starved).
  bool source_blocked() const {
    return retransmit_queue_.empty() &&
           next_offset_ < config_.total_payload_bytes &&
           next_offset_ >= available_bytes_;
  }

  // --- receive path ---------------------------------------------------------
  /// Processes an incoming ACK packet.
  void on_ack_packet(const net::Packet& pkt, sim::Time now);

  // --- timers -----------------------------------------------------------------
  /// Earliest of the loss timer and the PTO; infinite when nothing is
  /// outstanding.
  sim::Time next_timer_deadline() const;
  /// Fires due timers: runs time-threshold loss detection and/or PTO.
  void on_timer(sim::Time now);

  // --- observers -----------------------------------------------------------
  bool transfer_complete() const {
    return acked_.covered_bytes() >= config_.total_payload_bytes;
  }
  const Stats& stats() const { return stats_; }
  const cc::CongestionController& controller() const { return *cc_; }
  const RttEstimator& rtt() const { return rtt_; }
  std::int64_t bytes_in_flight() const { return sent_.bytes_in_flight(); }
  std::int64_t cwnd_bytes() const { return cc_->cwnd_bytes(); }
  const Config& config() const { return config_; }
  pacing::Pacer& pacer() { return *pacer_; }
  const pacing::Pacer& pacer() const { return *pacer_; }

 private:
  struct Chunk {
    std::int64_t offset;
    std::int64_t length;
    bool fin;
  };

  Chunk next_chunk();
  void handle_lost(std::vector<SentPacket> lost, bool persistent,
                   sim::Time now);
  /// Publishes the recovery state after an ACK or a loss; a no-op when
  /// untraced.
  void publish_recovery(sim::Time now, obs::RecoveryEvent event,
                        std::uint64_t packets, std::int64_t bytes);

  Config config_;
  std::unique_ptr<cc::CongestionController> cc_;
  std::unique_ptr<pacing::Pacer> pacer_;
  SentPacketMap sent_;
  RttEstimator rtt_;
  LossDetection loss_;

  std::uint64_t next_pn_ = 1;
  std::uint64_t next_packet_id_ = 1;
  std::int64_t next_offset_ = 0;
  std::int64_t available_bytes_ = 0;  // app-limited availability watermark
  std::int64_t peer_max_data_ = 0;  // highest MAX_DATA seen
  // Lost chunks awaiting retransmission (unallocated until the first loss
  // or probe).
  sim::FifoRing<Chunk> retransmit_queue_;
  ByteIntervalSet acked_;
  std::uint64_t largest_acked_ = 0;
  bool has_acked_anything_ = false;

  // Delivery-rate estimator state.
  std::int64_t delivered_bytes_ = 0;
  sim::Time delivered_time_;
  bool app_limited_ = false;

  sim::Time loss_timer_ = sim::Time::infinite();
  int pto_count_ = 0;
  // A PTO queued a probe that the next built packet carries.
  bool probe_owed_ = false;

  Stats stats_;
};

}  // namespace quicsteps::quic
