// FQ_CoDel model (Debian's default qdisc, per the paper's background
// discussion of why default TCP traffic is not paced).
//
// Implements the CoDel control law (RFC 8289) over a FIFO drained at a
// configurable rate (defaults to the NIC line rate). With a single bulk
// flow on a 1 Gbit/s egress carrying <=40 Mbit/s of traffic the sojourn
// time never crosses the target, so — as in the paper's baseline — the
// qdisc is effectively transparent; the control law is still fully
// implemented and exercised by tests at lower drain rates.
//
// Queued packets stay in the shared net::PacketSlab; the FIFO holds their
// refs and enqueue times in a sim::FifoRing, which allocates on the first
// packet, so a fleet's idle per-host qdiscs cost no heap.
#pragma once

#include <cstdint>

#include "kernel/qdisc.hpp"
#include "net/packet_slab.hpp"
#include "sim/fifo_ring.hpp"

namespace quicsteps::kernel {

class FqCodelQdisc final : public Qdisc {
 public:
  struct Config {
    std::int64_t limit_packets = 10240;
    /// Rate at which the downstream drains this queue.
    net::DataRate drain_rate = net::DataRate::gigabits_per_second(1);
  };

  FqCodelQdisc(sim::EventLoop& loop, net::PacketSlab& slab, Config config,
               net::PacketSink* downstream)
      : Qdisc(loop, slab, "fq_codel", downstream), config_(config) {}

  void deliver_ref(net::PacketSlab& slab, net::PacketSlab::Ref ref) override;

  std::int64_t codel_drops() const { return codel_drops_; }
  std::int64_t backlog_packets() const override {
    return static_cast<std::int64_t>(queue_.size());
  }

 private:
  struct Entry {
    net::PacketSlab::Ref ref = 0;
    sim::Time enqueue_time;
  };

  void schedule_drain();
  void on_drain();
  void drain_one();
  // CoDel control law: returns true if the packet at the head should drop.
  bool codel_should_drop(sim::Time sojourn_ref, sim::Duration sojourn);

  Config config_;
  sim::FifoRing<Entry> queue_;
  sim::Time drain_free_;  // when the virtual serializer is free
  bool drain_scheduled_ = false;

  // CoDel state (RFC 8289 pseudocode names).
  bool dropping_ = false;
  sim::Time first_above_time_ = sim::Time::infinite();
  sim::Time drop_next_;
  std::uint32_t count_ = 0;
  std::uint32_t last_count_ = 0;
  std::int64_t codel_drops_ = 0;
};

}  // namespace quicsteps::kernel
