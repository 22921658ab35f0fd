// netem model: constant delay (optional jitter) with a packet-count limit.
//
// Used twice in the measurement topology, 20 ms in each direction, to build
// the 40 ms minimum RTT. Following the paper's setup, its buffer is sized
// to two bandwidth-delay products so that it never drops — drops must only
// happen at the TBF bottleneck.
#pragma once

#include <cstdint>

#include "kernel/qdisc.hpp"
#include "net/packet_slab.hpp"
#include "sim/random.hpp"

namespace quicsteps::kernel {

class NetemQdisc final : public Qdisc {
 public:
  struct Config {
    sim::Duration delay = sim::Duration::millis(20);
    sim::Duration jitter = sim::Duration::zero();
    std::int64_t limit_packets = 100000;
    /// Random independent loss probability (tc netem `loss`).
    double loss_probability = 0.0;
    /// Probability that a packet is re-ordered by being delivered with a
    /// reduced delay (tc netem `reorder` semantics: reordered packets jump
    /// the queue by `reorder_gap`).
    double reorder_probability = 0.0;
    sim::Duration reorder_gap = sim::Duration::millis(2);
  };

  NetemQdisc(sim::EventLoop& loop, Config config, sim::Rng rng,
             net::PacketSink* downstream)
      : Qdisc(loop, "netem", downstream),
        config_(config),
        rng_(std::move(rng)) {}

  void deliver(net::Packet pkt) override {
    note_arrival(pkt);
    if (in_flight_ >= config_.limit_packets) {
      drop(pkt);
      return;
    }
    if (rng_.chance(config_.loss_probability)) {
      ++random_losses_;
      drop(pkt);
      return;
    }
    ++in_flight_;
    sim::Duration d = config_.delay;
    if (config_.jitter > sim::Duration::zero()) {
      d = rng_.normal_duration(config_.delay, config_.jitter,
                               sim::Duration::zero());
    }
    if (rng_.chance(config_.reorder_probability)) {
      d = sim::max(d - config_.reorder_gap, sim::Duration::zero());
      ++reordered_;
    }
    if (slab_ != nullptr) {
      // Batched datapath: the delivery is a slotless drain record carrying
      // a slab ref (deliveries are never cancelled). A constant delay
      // delivers in arrival order, so the packet joins the channel's delay
      // line; jitter and reorder deliveries surface out of arrival order
      // and keep one queued record each (refs are payload-addressed, so
      // that needs no extra bookkeeping).
      const std::uint32_t ref = slab_->put(std::move(pkt));
      if (in_order()) {
        loop_.post_line_at(loop_.now() + d, delay_channel_, ref);
      } else {
        loop_.post_drain_at(loop_.now() + d, delay_channel_, ref);
      }
      return;
    }
    loop_.schedule_after(d, sim::EventClass::kDelay,
                         [this, pkt = std::move(pkt)]() mutable {
                           --in_flight_;
                           forward(std::move(pkt));
                         });
  }

  /// Switches deliveries to slab-backed drain records (batched datapath).
  /// Call once during wiring.
  void enable_batched(net::PacketSlab* slab) {
    slab_ = slab;
    delay_channel_ = loop_.register_drain(sim::EventClass::kDelay,
                                          &NetemQdisc::drain_delivery, this);
  }

  std::int64_t in_flight() const { return in_flight_; }
  std::int64_t random_losses() const { return random_losses_; }
  std::int64_t reordered() const { return reordered_; }

 private:
  /// True when every packet gets the same delay (no jitter, no reorder),
  /// so packets leave in the order they arrived.
  bool in_order() const {
    return config_.jitter <= sim::Duration::zero() &&
           config_.reorder_probability <= 0.0;
  }

  static void drain_delivery(void* self, std::uint32_t ref) {
    NetemQdisc* netem = static_cast<NetemQdisc*>(self);
    --netem->in_flight_;
    netem->forward(netem->slab_->take(ref));
  }

  Config config_;
  sim::Rng rng_;
  net::PacketSlab* slab_ = nullptr;
  sim::DrainId delay_channel_ = 0;
  std::int64_t in_flight_ = 0;
  std::int64_t random_losses_ = 0;
  std::int64_t reordered_ = 0;
};

}  // namespace quicsteps::kernel
