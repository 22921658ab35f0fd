// Receiver-side QUIC endpoint (the paper's downloading client).
//
// Consumes data packets, maintains the reassembly intervals, and runs the
// delayed-ACK policy: an ACK goes out after every second ack-eliciting
// packet or when kMaxAckDelay expires. The client puts each ACK into the
// slab, renders its frame there, and hands the ref to its egress path
// (netem +20 ms back to the server).
#pragma once

#include <cstdint>

#include "net/packet.hpp"
#include "net/packet_slab.hpp"
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

  /// ACK packets enter `slab` here; `ack_egress` transmits them toward
  /// the server.
  Client(sim::EventLoop& loop, net::PacketSlab& slab, Config config,
         net::PacketSink* ack_egress)
      : loop_(loop), slab_(slab), config_(config), ack_manager_(config.ack),
        ack_egress_(ack_egress) {}

  /// Feed one received datagram. An ACK it sends is put after the last
  /// read of `pkt`, so `pkt` may be a slab borrow.
  void on_datagram(const net::Packet& pkt);

  /// PacketSink ingress (flow-table routing targets the client directly):
  /// reads the packet in place, then retires it.
  void deliver_ref(net::PacketSlab& slab, net::PacketSlab::Ref ref) override {
    on_datagram(slab.at(ref));
    slab.retire(ref);
  }

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
  net::PacketSlab& slab_;
  Config config_;
  AckManager ack_manager_;
  net::PacketSink* ack_egress_;
  ByteIntervalSet received_;
  Stats stats_;
  sim::EventHandle ack_timer_;
  std::uint64_t next_ack_id_ = 1;
};

}  // namespace quicsteps::quic
