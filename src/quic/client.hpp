// Receiver-side QUIC endpoint (the paper's downloading client).
//
// Consumes data packets, maintains the reassembly intervals, and runs the
// delayed-ACK policy: an ACK goes out after every second ack-eliciting
// packet or when kMaxAckDelay expires. ACKs leave through the client's
// egress path (netem +20 ms back to the server).
#pragma once

#include <cstdint>
#include <functional>

#include "net/packet.hpp"
#include "quic/ack_manager.hpp"
#include "quic/frames.hpp"
#include "sim/event_loop.hpp"

namespace quicsteps::quic {

class Client : public net::PacketSink {
 public:
  struct Config {
    std::uint32_t flow = 1;
    AckManager::Config ack;
    std::int64_t expected_payload_bytes = 0;  // 0 = unknown
    /// Flow-control credit the client grants (MAX_DATA = consumed +
    /// credit, piggybacked on every ACK). <=0 = effectively unlimited.
    std::int64_t flow_control_credit = 0;
  };

  struct Stats {
    std::int64_t data_packets_received = 0;
    std::int64_t duplicate_packets = 0;
    std::int64_t payload_bytes_received = 0;
    std::int64_t acks_sent = 0;
    sim::Time first_packet_time = sim::Time::infinite();
    sim::Time last_packet_time;
    sim::Time completion_time = sim::Time::infinite();
  };

  /// `ack_egress` transmits ACK packets toward the server.
  Client(sim::EventLoop& loop, Config config, net::PacketSink* ack_egress)
      : loop_(loop), config_(config), ack_manager_(config.ack),
        ack_egress_(ack_egress) {}

  /// Feed one received datagram (the client UdpReceiver's flow table
  /// routes here).
  void on_datagram(const net::Packet& pkt);

  /// PacketSink ingress (flow-table routing targets the client directly).
  void deliver(net::Packet pkt) override { on_datagram(pkt); }

  bool complete() const {
    return config_.expected_payload_bytes > 0 &&
           received_.covered_bytes() >= config_.expected_payload_bytes;
  }
  const Stats& stats() const { return stats_; }
  const ByteIntervalSet& received() const { return received_; }

 private:
  void send_ack_now();
  void arm_ack_timer();

  sim::EventLoop& loop_;
  Config config_;
  AckManager ack_manager_;
  net::PacketSink* ack_egress_;
  ByteIntervalSet received_;
  Stats stats_;
  sim::EventHandle ack_timer_;
  std::uint64_t next_ack_id_ = 1;
};

}  // namespace quicsteps::quic
