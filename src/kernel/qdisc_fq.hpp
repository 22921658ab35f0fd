// FQ qdisc model.
//
// The property the paper relies on: FQ schedules packets that carry an
// SO_TXTIME timestamp at that timestamp, releasing them via kernel hrtimer
// watchdogs (so with some tens of microseconds of slack), and — unlike ETF —
// never drops a packet whose timestamp already passed; it sends it
// immediately instead. Packets without a timestamp pass straight through.
// Packets time-stamped beyond the horizon are dropped (fq's default
// horizon-drop behavior).
//
// One qdisc serves one flow: SenderPath builds a qdisc per sender host
// (framework/network.hpp), so sch_fq's per-flow classification, DRR
// round-robin among flows and per-flow maxrate never see a second flow.
// The model is therefore one TxtimeHeap (qdisc.hpp): same-timestamp
// packets leave in the order they arrived. Held packets stay in the shared
// net::PacketSlab; only the txtime check borrows one in place.
#pragma once

#include <cstdint>

#include "kernel/os_model.hpp"
#include "kernel/qdisc.hpp"
#include "net/packet_slab.hpp"

namespace quicsteps::kernel {

class FqQdisc final : public Qdisc {
 public:
  struct Config {
    std::int64_t limit_packets = 10000;  // fq "limit"
    sim::Duration horizon = sim::Duration::seconds(10);
    bool horizon_drop = true;
  };

  FqQdisc(sim::EventLoop& loop, net::PacketSlab& slab, Config config,
          OsModel& os, net::PacketSink* downstream)
      : Qdisc(loop, slab, "fq", downstream), config_(config), os_(os) {}

  void deliver_ref(net::PacketSlab& slab, net::PacketSlab::Ref ref) override;

  std::size_t queued_packets() const { return held_.size(); }
  /// Conservation hook: the auditor cross-checks this live depth against
  /// the counter-implied backlog.
  std::int64_t backlog_packets() const override {
    return static_cast<std::int64_t>(held_.size());
  }

 private:
  void arm_watchdog();
  void on_watchdog();

  Config config_;
  OsModel& os_;
  TxtimeHeap held_;
  sim::EventHandle watchdog_;
  sim::Time watchdog_at_ = sim::Time::infinite();
};

}  // namespace quicsteps::kernel
