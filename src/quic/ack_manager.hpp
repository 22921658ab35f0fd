// Receiver-side acknowledgment policy (RFC 9000 §13.2): ACK every second
// ack-eliciting packet, or after kMaxAckDelay, whichever first. The ACK
// frequency shapes ACK clocking on the sender and thus pacing behavior —
// the paper's background section flags this interaction explicitly.
#pragma once

#include <cstdint>
#include <memory>

#include "net/packet.hpp"
#include "quic/frames.hpp"
#include "sim/time.hpp"

namespace quicsteps::quic {

class AckManager {
 public:
  struct Config {
    int ack_eliciting_threshold = 2;  // RFC 9000 recommendation
  };

  AckManager() : AckManager(Config{}) {}
  explicit AckManager(Config config) : config_(config) {}

  /// Records an incoming packet. Returns true if it was new (not a dup).
  bool on_packet_received(std::uint64_t pn, bool ack_eliciting, sim::Time now);

  /// True when the threshold forces an immediate ACK.
  bool ack_due_now() const {
    return pending_ack_eliciting_ >= config_.ack_eliciting_threshold;
  }
  /// Deadline of the delayed-ACK timer; infinite when nothing is pending.
  sim::Time ack_deadline() const;

  bool has_pending() const { return pending_ack_eliciting_ > 0; }

  /// Builds the ACK payload, carrying `max_data` as its MAX_DATA grant
  /// (0 = none), and clears the pending state.
  std::shared_ptr<const net::TransportAck> build_ack(
      sim::Time now, std::int64_t max_data = 0);

 private:
  Config config_;
  PacketNumberSet received_;
  int pending_ack_eliciting_ = 0;
  sim::Time largest_recv_time_;
  sim::Time first_pending_time_ = sim::Time::infinite();
};

}  // namespace quicsteps::quic
