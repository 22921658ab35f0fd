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
// The model is therefore one min-heap on (release time, arrival order):
// same-timestamp packets leave in the order they arrived. Held packets
// live flat in the shared net::PacketSlab; the heap sifts 24-byte
// (time, order, ref) entries, not packets.
#pragma once

#include <cstdint>
#include <vector>

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
      : Qdisc(loop, "fq", downstream), config_(config), slab_(slab), os_(os) {}

  void deliver(net::Packet pkt) override;

  std::size_t queued_packets() const { return heap_.size(); }
  /// Conservation hook: the auditor cross-checks this live depth against
  /// the counter-implied backlog.
  std::int64_t backlog_packets() const override {
    return static_cast<std::int64_t>(heap_.size());
  }

 private:
  /// One held packet: its release time plus an arrival sequence number,
  /// so same-timestamp packets keep their arrival order.
  struct Entry {
    sim::Time at;
    std::uint64_t seq = 0;
    net::PacketSlab::Ref ref = 0;
  };
  /// Heap order: std::push_heap builds a max-heap, so ordering by
  /// "releases later" puts the earliest (at, seq) at the front.
  static bool releases_later(const Entry& a, const Entry& b) {
    return a.at > b.at || (a.at == b.at && a.seq > b.seq);
  }

  void arm_watchdog();
  void on_watchdog();

  Config config_;
  net::PacketSlab& slab_;
  OsModel& os_;
  std::vector<Entry> heap_;
  std::uint64_t next_seq_ = 0;
  sim::EventHandle watchdog_;
  sim::Time watchdog_at_ = sim::Time::infinite();
};

}  // namespace quicsteps::kernel
