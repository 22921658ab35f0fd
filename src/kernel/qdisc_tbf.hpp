// Token Bucket Filter model.
//
// Used as the bottleneck shaper in the measurement topology (40 Mbit/s on
// the client's IFB ingress). Classic TBF semantics: tokens accrue at `rate`
// up to `burst` bytes; a packet leaves when the bucket covers it; packets
// wait in a byte-limited FIFO and are dropped (drop-tail) when the FIFO is
// full. There is no user-space interface to change the rate per packet —
// the reason the paper rules TBF out for QUIC pacing.
//
// Packets arrive, wait and leave as refs into the shared net::PacketSlab:
// the FIFO holds the refs, and the drop-tail check and the token loop read
// byte sizes off the slab's hot lane, so the TBF never loads a packet.
#pragma once

#include <cstdint>
#include <deque>

#include "kernel/qdisc.hpp"
#include "net/packet_slab.hpp"

namespace quicsteps::kernel {

class TbfQdisc final : public Qdisc {
 public:
  struct Config {
    net::DataRate rate = net::DataRate::megabits_per_second(40);
    std::int64_t burst_bytes = 16 * 1024;
    /// FIFO capacity in bytes (the paper's bottleneck buffer).
    std::int64_t limit_bytes = 200 * 1000;  // 1 BDP at 40 Mbit/s x 40 ms
  };

  TbfQdisc(sim::EventLoop& loop, net::PacketSlab& slab, Config config,
           net::PacketSink* downstream);

  void deliver_ref(net::PacketSlab& slab, net::PacketSlab::Ref ref) override;

  std::int64_t backlog_bytes() const { return backlog_bytes_; }
  std::int64_t backlog_packets() const override {
    return static_cast<std::int64_t>(queue_.size());
  }

 private:
  void refill_tokens(sim::Time now);
  void try_release();

  Config config_;
  std::deque<net::PacketSlab::Ref> queue_;
  std::int64_t backlog_bytes_ = 0;
  double tokens_bytes_;
  sim::Time last_refill_;
  sim::EventHandle wake_;
};

}  // namespace quicsteps::kernel
