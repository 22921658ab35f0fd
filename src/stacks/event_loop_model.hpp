// StackServer: the example-server event loop, parameterized by a
// StackProfile.
//
// This is where user-space pacing meets reality: coarse timers, batched ACK
// processing, per-call syscall costs, GSO batching, and the choice between
// "hand the kernel a txtime" (quiche) and "sleep until the pacer says go"
// (ngtcp2, picoquic). The same transport connection underneath produces
// the paper's per-stack wire signatures purely through these disciplines.
#pragma once

#include <deque>
#include <memory>
#include <vector>

#include "kernel/timer_service.hpp"
#include "kernel/udp_socket.hpp"
#include "obs/trace.hpp"
#include "quic/connection.hpp"
#include "stacks/stack_profile.hpp"

namespace quicsteps::stacks {

class StackServer : public net::PacketSink, public obs::TraceSource {
 public:
  struct Stats {
    /// CPU time the sender thread spent building packets and in syscalls
    /// (the currency GSO saves).
    sim::Duration cpu_time;
    std::int64_t wakeups = 0;
    std::int64_t send_syscalls = 0;
  };

  /// The socket recycles GSO segment buffers through `slab`'s pool.
  StackServer(sim::EventLoop& loop, net::PacketSlab& slab,
              kernel::OsModel& os, StackProfile profile,
              quic::Connection::Config conn_config,
              net::PacketSink* kernel_egress);

  /// Kicks off the transfer.
  void start() { attempt_send(); }

  /// Wire this to the server-side UdpReceiver (delivers ACKs).
  void on_datagram(const net::Packet& pkt);

  /// PacketSink ingress (flow-table routing targets the server directly).
  void deliver(net::Packet pkt) override { on_datagram(pkt); }

  /// External wake-up (new application data became available).
  void poke() { attempt_send(); }

  quic::Connection& connection() { return connection_; }
  const quic::Connection& connection() const { return connection_; }
  const StackProfile& profile() const { return profile_; }
  const Stats& stats() const { return stats_; }
  const kernel::UdpSocket& socket() const { return socket_; }

  /// Installs tracing on the stack (pacer-release spans) and its socket
  /// (kernel-entry spans) in one call so both components wire together.
  void set_trace(obs::TraceBus* bus, std::uint16_t self,
                 std::uint16_t socket_component) {
    obs::TraceSource::set_trace(bus, self);
    socket_.set_trace(bus, socket_component);
  }

 private:
  void process_ack_batch();
  void attempt_send();
  void send_with_txtime();  // quiche discipline
  void send_waiting();      // ngtcp2 / picoquic discipline
  void flush_gso_batch(std::vector<net::Packet> batch);
  void rearm_loss_timer();
  void on_loss_timer();
  void charge_syscall();

  sim::EventLoop& loop_;
  kernel::OsModel& os_;
  StackProfile profile_;
  quic::Connection connection_;
  kernel::UdpSocket socket_;
  kernel::TimerService pacer_timers_;

  std::deque<net::Packet> pending_acks_;
  std::vector<net::Packet> mmsg_batch_;
  sim::EventHandle batch_timer_;
  sim::EventHandle send_timer_;
  sim::EventHandle yield_timer_;
  sim::EventHandle loss_timer_;
  /// Deadline loss_timer_ is armed for (lazy re-arm: the timer may sit at
  /// an earlier time than the connection's current deadline and silently
  /// re-arm when it fires).
  sim::Time armed_loss_deadline_ = sim::Time::infinite();

  Stats stats_;
};

}  // namespace quicsteps::stacks
