// Reference QUIC server: drives a Connection with IDEAL discipline —
// perfect timers, immediate ACK processing, always waits for the pacer.
//
// This is not one of the measured stacks (those live in src/stacks with
// their timer and batching quirks); it exists to (a) validate the transport
// machinery in tests independent of stack behavior and (b) serve as the
// "perfect user-space pacing" ablation baseline.
#pragma once

#include "kernel/timer_service.hpp"
#include "net/packet.hpp"
#include "net/packet_slab.hpp"
#include "obs/trace.hpp"
#include "quic/connection.hpp"
#include "sim/event_loop.hpp"

namespace quicsteps::quic {

class ReferenceServer : public net::PacketSink, public obs::TraceSource {
 public:
  /// Each packet enters the kernel at `egress` (deliver(const Packet&)).
  ReferenceServer(sim::EventLoop& loop, Connection::Config config,
                  net::PacketHop* egress)
      : loop_(loop), connection_(config), egress_(egress) {}

  /// Routes pacer sleeps through `timers` (OS-quality wakeups) instead of
  /// the simulator's exact clock — for "how good can user-space pacing
  /// get on this host" experiments.
  void set_pacer_timers(kernel::TimerService* timers) { timers_ = timers; }

  /// Kicks off the transfer.
  void start() { attempt_send(); }

  /// PacketSink ingress (flow-table routing targets the server directly):
  /// an ACK's frame is read in place, and every packet is retired.
  void deliver_ref(net::PacketSlab& slab, net::PacketSlab::Ref ref) override;

  Connection& connection() { return connection_; }
  const Connection& connection() const { return connection_; }

 private:
  void attempt_send();
  void rearm_loss_timer();
  void on_loss_timer();
  static void on_pacer_timer(void* self, std::uint32_t /*payload*/) {
    static_cast<ReferenceServer*>(self)->attempt_send();
  }

  sim::EventLoop& loop_;
  Connection connection_;
  net::PacketHop* egress_;
  kernel::TimerService* timers_ = nullptr;
  /// Intended release of the packet we armed a timer for: the wakeup may
  /// land late, but the packet's *intended* send time (what the precision
  /// metric compares against) is the pre-sleep value.
  sim::Time planned_release_ = sim::Time::infinite();
  sim::EventHandle send_timer_;
  LossTimer loss_timer_;
};

}  // namespace quicsteps::quic
