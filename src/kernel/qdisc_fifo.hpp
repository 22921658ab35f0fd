// pfifo_fast stand-in: a pass-through FIFO.
//
// This is the kernel-default qdisc used in the paper's baseline: it ignores
// SO_TXTIME entirely, so whatever burst pattern user space produces reaches
// the wire unchanged. It holds no packets, so it never reaches Linux's
// txqueuelen limit; the downstream NIC serializes and queues.
#pragma once

#include "kernel/qdisc.hpp"

namespace quicsteps::kernel {

class FifoQdisc final : public Qdisc {
 public:
  FifoQdisc(sim::EventLoop& loop, net::PacketSlab& slab,
            net::PacketSink* downstream)
      : Qdisc(loop, slab, "pfifo_fast", downstream) {}

  void deliver_ref(net::PacketSlab& slab, net::PacketSlab::Ref ref) override {
    note_arrival(slab, ref);
    forward(ref);
  }
};

}  // namespace quicsteps::kernel
