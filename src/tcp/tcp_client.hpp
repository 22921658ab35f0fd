// TCP receiver (the wget side): cumulative + SACK acknowledgments with the
// kernel's delayed-ACK policy (ACK every second segment or after the
// delayed-ACK timer). Like the QUIC client, it puts each ACK into the
// slab and renders its frame there.
#pragma once

#include "net/packet.hpp"
#include "net/packet_slab.hpp"
#include "quic/ack_manager.hpp"
#include "quic/frames.hpp"
#include "sim/event_loop.hpp"
#include "tcp/tcp_connection.hpp"

namespace quicsteps::tcp {

class TcpClient : public net::PacketSink {
 public:
  struct Config {
    std::uint32_t flow = 2;
    std::int64_t expected_payload_bytes = 0;
    quic::AckManager::Config ack;  // same delayed-ACK shape as the kernel's
  };

  struct Stats {
    std::int64_t segments_received = 0;
    std::int64_t duplicate_segments = 0;
    std::int64_t payload_bytes_received = 0;
    std::int64_t acks_sent = 0;
    sim::Time first_packet_time = sim::Time::infinite();
    sim::Time last_packet_time;
    sim::Time completion_time = sim::Time::infinite();
  };

  TcpClient(sim::EventLoop& loop, net::PacketSlab& slab, Config config,
            net::PacketSink* ack_egress)
      : loop_(loop), slab_(slab), config_(config), ack_manager_(config.ack),
        ack_egress_(ack_egress) {}

  /// Feed one received segment. An ACK it sends is put after the last
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

 private:
  void send_ack_now(bool force = false);
  void on_ack_timer() { send_ack_now(); }
  void arm_ack_timer();

  sim::EventLoop& loop_;
  net::PacketSlab& slab_;
  Config config_;
  quic::AckManager ack_manager_;
  net::PacketSink* ack_egress_;
  quic::ByteIntervalSet received_;
  Stats stats_;
  sim::EventHandle ack_timer_;
  std::uint64_t next_ack_id_ = 1;
};

}  // namespace quicsteps::tcp
