// ETF (Earliest TxTime First) qdisc model.
//
// Differences from FQ that the paper exercises:
//  * packets whose txtime is already in the past are DROPPED, not sent;
//  * the qdisc dequeues `delta` ahead of each packet's txtime so the
//    driver path has time to complete — the packet then spends a variable
//    amount of that window in the kernel/driver before reaching the NIC;
//  * with hardware offload (LaunchTime) the NIC holds the early packet
//    until its txtime (see nic.hpp), clipping the early-send error but not
//    the late tail — which is why the paper measures no precision gain.
//
// Held packets stay in the shared net::PacketSlab: the qdisc keeps their
// refs in a TxtimeHeap (qdisc.hpp), so equal txtimes leave in arrival
// order, and a packet's release into the driver path is a slotted record
// carrying its ref.
#pragma once

#include <cstdint>

#include "kernel/os_model.hpp"
#include "kernel/qdisc.hpp"
#include "net/packet_slab.hpp"

namespace quicsteps::kernel {

class EtfQdisc final : public Qdisc {
 public:
  struct Config {
    /// How far ahead of txtime the qdisc hands packets to the driver.
    sim::Duration delta = sim::Duration::micros(200);
    std::int64_t limit_packets = 1000;
    /// Mean/stddev of the kernel+driver path time between dequeue and NIC
    /// arrival. On the modelled host this typically EXCEEDS the 200 us
    /// delta (Bosk et al. call 175 us borderline), so packets usually reach
    /// the NIC after their txtime — which is why LaunchTime offload cannot
    /// improve precision (Section 4.4's null result).
    sim::Duration driver_path_mean = sim::Duration::micros(420);
    sim::Duration driver_path_stddev = sim::Duration::micros(250);
  };

  EtfQdisc(sim::EventLoop& loop, net::PacketSlab& slab, Config config,
           OsModel& os, net::PacketSink* downstream)
      : Qdisc(loop, slab, "etf", downstream), config_(config), os_(os) {}

  void deliver_ref(net::PacketSlab& slab, net::PacketSlab::Ref ref) override;

  std::size_t queued_packets() const { return timed_.size(); }
  std::int64_t late_drops() const { return late_drops_; }

 private:
  void arm_watchdog();
  void on_watchdog();
  void on_release(std::uint32_t ref) { forward(ref); }

  Config config_;
  OsModel& os_;
  TxtimeHeap timed_;
  sim::EventHandle watchdog_;
  sim::Time watchdog_at_ = sim::Time::infinite();
  /// Releases are monotone: the driver queue preserves order, so a packet
  /// never overtakes its predecessor regardless of path-time jitter.
  sim::Time last_release_;
  std::int64_t late_drops_ = 0;
};

}  // namespace quicsteps::kernel
