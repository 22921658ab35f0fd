// FQ qdisc model — true multi-flow fair queueing.
//
// The property the paper relies on: FQ schedules packets that carry an
// SO_TXTIME timestamp at that timestamp, releasing them via kernel hrtimer
// watchdogs (so with some tens of microseconds of slack), and — unlike ETF —
// never drops a packet whose timestamp already passed; it sends it
// immediately instead. Packets without a timestamp pass straight through.
// Packets time-stamped beyond the horizon are dropped (fq's default
// horizon-drop behavior).
//
// Beyond the single-flow pass-through the paper's figures exercise, this
// model now reproduces the parts of sch_fq that matter when many flows
// share one qdisc (the 10k-flow fabric):
//
//   classification   per-flow queues keyed by pkt.flow through the
//                    dense net::FlowIndex the flow tables share;
//   scheduling       each flow's packets release in (txtime, arrival)
//                    order via a per-flow binary min-heap, and the qdisc
//                    arms its watchdog off a global heap of flow head
//                    release times — O(log n) per operation, not O(n);
//   fairness         flows whose packets are due in the same softirq are
//                    served DRR-style (quantum bytes per round), sch_fq's
//                    round-robin among eligible flows;
//   rate pacing      an optional per-flow pacing rate (sch_fq's
//                    "maxrate"/SO_MAX_PACING_RATE): each released byte
//                    pushes the flow's next eligible time out by
//                    size/rate, enforced on top of any SO_TXTIME stamp.
//
// A single-flow FQ (every sender host owns its qdisc) takes exactly the
// historical code path: one flow in the round never triggers DRR
// bookkeeping, the global heap degenerates to the old multimap head, and
// the watchdog arming times — hence its RNG draw sequence — are
// bit-identical to the pre-multi-flow model (the N<=8 wire-hash goldens
// pin this).
#pragma once

#include <cstdint>
#include <vector>

#include "kernel/os_model.hpp"
#include "kernel/qdisc.hpp"
#include "net/data_rate.hpp"
#include "net/flow_index.hpp"

namespace quicsteps::kernel {

class FqQdisc final : public Qdisc {
 public:
  struct Config {
    std::int64_t limit_packets = 10000;  // fq "limit" (per-qdisc, all flows)
    sim::Duration horizon = sim::Duration::seconds(10);
    bool horizon_drop = true;
    /// DRR quantum: bytes a flow may send per service round when several
    /// flows are due at once (sch_fq default: 2 full-size frames).
    std::int64_t quantum_bytes = 3028;
  };

  FqQdisc(sim::EventLoop& loop, Config config, OsModel& os,
          net::PacketSink* downstream)
      : Qdisc(loop, "fq", downstream), config_(config), os_(os) {}

  void deliver(net::Packet pkt) override;

  /// Caps this flow's throughput (sch_fq maxrate): each released packet
  /// pushes the flow's next eligible time out by size/rate, on top of any
  /// SO_TXTIME stamp. Zero (the default) leaves the flow unpaced.
  void set_flow_rate(std::uint32_t flow, net::DataRate rate);

  /// All packets held across every flow queue (the old single-structure
  /// count missed nothing; this one is maintained across per-flow heaps).
  std::size_t queued_packets() const { return total_queued_; }
  /// Conservation hook: the auditor cross-checks this live depth against
  /// the counter-implied backlog.
  std::int64_t backlog_packets() const override {
    return static_cast<std::int64_t>(total_queued_);
  }
  /// Packets held for one flow (0 for flows never seen).
  std::size_t queued_packets(std::uint32_t flow) const;
  /// Flows that have ever traversed the qdisc.
  std::size_t flow_count() const { return flows_.size(); }

 private:
  /// One queued packet: release time plus a global arrival sequence so
  /// same-timestamp packets leave in arrival order (the multimap ordering
  /// this heap replaced).
  struct Entry {
    sim::Time at;
    std::uint64_t seq = 0;
    net::Packet pkt;
  };
  /// Global-heap element: a flow's head release key when it was pushed.
  /// Entries go stale when the head changes; reads prune lazily.
  struct Head {
    sim::Time at;
    std::uint64_t seq = 0;
    std::uint32_t flow_index = 0;
  };
  struct FlowQueue {
    std::uint32_t flow = 0;
    std::vector<Entry> heap;  // min-heap on (at, seq)
    net::DataRate rate;       // zero = unpaced
    sim::Time rate_next = sim::Time::zero();  // next eligible (paced flows)
    std::int64_t deficit = 0;                 // DRR credit, this round only
    bool in_service = false;
  };

  FlowQueue& flow_for(std::uint32_t flow);
  const FlowQueue* find_flow(std::uint32_t flow) const;
  void push_entry(FlowQueue& fq, Entry entry);
  net::Packet pop_head(FlowQueue& fq);
  void push_global_head(std::uint32_t flow_index);
  /// Drops stale global-heap tops (flow head changed since the push).
  void prune_global();
  void drain_due(sim::Time now);
  void arm_watchdog();
  void on_watchdog();

  Config config_;
  OsModel& os_;

  /// flow id -> flows_ index (queues are created in arrival order).
  net::FlowIndex flow_index_;
  std::vector<FlowQueue> flows_;

  /// Min-heap of flow head release keys (lazy deletion). Its pruned top is
  /// the earliest pending release across all flows — what the watchdog
  /// arms against.
  std::vector<Head> global_;
  /// Scratch for drain_due's service round (kept to avoid reallocating).
  std::vector<std::uint32_t> service_;

  std::uint64_t next_seq_ = 0;
  std::size_t total_queued_ = 0;
  sim::EventHandle watchdog_;
  sim::Time watchdog_at_ = sim::Time::infinite();
};

}  // namespace quicsteps::kernel
