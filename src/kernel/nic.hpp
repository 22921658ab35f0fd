// NIC model: line-rate serializer, GSO expansion point, LaunchTime engine.
//
// This is the last element before the wire (and thus before the tap). It
//   * expands GSO super-packets into wire packets — back-to-back for stock
//     GSO, spread at the buffer's pacing rate for the paced-GSO patch;
//   * with LaunchTime enabled, holds a packet that arrives before its
//     txtime until that txtime (clipping ETF's early-dequeue error);
//   * serializes everything at the line rate, which produces the ~12 us
//     minimum inter-packet gap the paper calls out for 1 Gbit/s.
//
// TX completions are drain records carrying refs into the shared
// net::PacketSlab.
#pragma once

#include <cstdint>

#include "kernel/os_model.hpp"
#include "net/packet.hpp"
#include "net/packet_slab.hpp"
#include "obs/trace.hpp"
#include "sim/event_loop.hpp"

namespace quicsteps::kernel {

class Nic final : public net::PacketSink, public obs::TraceSource {
 public:
  struct Config {
    net::DataRate line_rate = net::DataRate::gigabits_per_second(1);
    bool launch_time = false;
    /// Residual error of the LaunchTime engine (I210-class hardware fires
    /// within a microsecond of the armed time).
    sim::Duration launch_jitter_max = sim::Duration::micros(1);
    /// TSN-strict behavior: a packet that reaches the NIC after its armed
    /// launch time has missed its slot and is DROPPED. Off by default (the
    /// paper's measured setup transmits such packets immediately); used by
    /// the ETF-delta ablation to show the Bosk et al. trade-off.
    bool drop_missed_launch = false;
  };

  Nic(sim::EventLoop& loop, net::PacketSlab& slab, Config config, OsModel& os,
      net::PacketSink* downstream)
      : loop_(loop),
        slab_(slab),
        tx_channel_(loop.register_drain(sim::EventClass::kTransmit,
                                        &Nic::drain_tx, this)),
        config_(config),
        os_(os),
        downstream_(downstream) {}
  // The TX drain channel holds `this`.
  Nic(const Nic&) = delete;
  Nic& operator=(const Nic&) = delete;

  void deliver(net::Packet pkt) override;

  void set_downstream(net::PacketSink* sink) { downstream_ = sink; }
  std::int64_t packets_sent() const { return packets_sent_; }
  std::int64_t missed_launch_drops() const { return missed_launch_drops_; }

 private:
  /// Serializes one wire packet whose transmission may start no earlier
  /// than `earliest`.
  void transmit(net::Packet pkt, sim::Time earliest);

  static void drain_tx(void* self, std::uint32_t ref);

  sim::EventLoop& loop_;
  net::PacketSlab& slab_;
  sim::DrainId tx_channel_;
  Config config_;
  OsModel& os_;
  net::PacketSink* downstream_;
  sim::Time busy_until_;
  std::int64_t packets_sent_ = 0;
  std::int64_t missed_launch_drops_ = 0;
};

}  // namespace quicsteps::kernel
