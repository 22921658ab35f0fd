// Kernel-side TCP sender driver (the nginx box, as the network sees it).
//
// ACK processing and transmission happen "in the kernel": immediately, with
// no syscall or timer noise. Burstiness is bounded by a TSQ (TCP Small
// Queues) model — at most three segments sit in the device queue at
// once, and further sends wait for TX-completion clocking. This produces
// the short (<=5 packet) trains Table 1 and Figure 3 report for TCP/TLS.
#pragma once

#include "net/packet.hpp"
#include "net/packet_slab.hpp"
#include "sim/event_loop.hpp"
#include "tcp/tcp_connection.hpp"

namespace quicsteps::tcp {

class TcpServer : public net::PacketSink {
 public:
  struct Config {
    TcpConnection::Config connection;
    /// Device serialization rate used for TX-completion pacing.
    net::DataRate line_rate = net::DataRate::gigabits_per_second(1);
  };

  /// Each segment enters the kernel at `egress` (deliver(const Packet&)).
  TcpServer(sim::EventLoop& loop, Config config, net::PacketHop* egress)
      : loop_(loop), config_(config), connection_(config.connection),
        egress_(egress) {}

  void start() { attempt_send(); }

  /// PacketSink ingress (flow-table routing targets the server directly):
  /// an ACK's frame is read in place, and every packet is retired.
  void deliver_ref(net::PacketSlab& slab, net::PacketSlab::Ref ref) override {
    const bool ack = slab.at(ref).kind == net::PacketKind::kTcpAck;
    if (ack) connection_.on_ack(slab.ack(ref), loop_.now());
    slab.retire(ref);
    if (!ack) return;
    rearm_loss_timer();
    attempt_send();
  }

  TcpConnection& connection() { return connection_; }
  const TcpConnection& connection() const { return connection_; }

 private:
  void attempt_send();
  void rearm_loss_timer();
  void on_loss_timer();

  sim::EventLoop& loop_;
  Config config_;
  TcpConnection connection_;
  net::PacketHop* egress_;
  sim::EventHandle tsq_timer_;
  sim::EventHandle loss_timer_;
};

}  // namespace quicsteps::tcp
