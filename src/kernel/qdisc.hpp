// Queueing-discipline base.
//
// A qdisc sits between the kernel socket layer and the NIC. Each model
// reproduces the scheduling semantics of its Linux counterpart that matter
// for pacing: whether SO_TXTIME release timestamps are honored (FQ, ETF),
// whether late packets are dropped (ETF), and whether the rate can be
// steered from user space (TBF cannot, which is why the paper dismisses it
// for QUIC).
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "check/audit.hpp"
#include "net/counters.hpp"
#include "net/packet.hpp"
#include "obs/trace.hpp"
#include "sim/event_loop.hpp"

namespace quicsteps::kernel {

class Qdisc : public net::PacketSink, public obs::TraceSource {
 public:
  Qdisc(sim::EventLoop& loop, std::string name, net::PacketSink* downstream)
      : loop_(loop), name_(std::move(name)), downstream_(downstream) {}
  // Scheduled events and drain channels hold `this`.
  Qdisc(const Qdisc&) = delete;
  Qdisc& operator=(const Qdisc&) = delete;

  const std::string& name() const { return name_; }
  const net::Counters& counters() const { return counters_; }
  void set_downstream(net::PacketSink* sink) { downstream_ = sink; }

  /// Live queue depth in packets for conservation auditing, or -1 when the
  /// discipline does not report one (only sign/edge invariants then apply
  /// to its stage). Disciplines that hold packets should override this
  /// with their actual structure size — the auditor cross-checks it
  /// against the counter-implied backlog, which catches miscounted holds.
  virtual std::int64_t backlog_packets() const { return -1; }

  /// Observes every dropped packet (after it is counted). A shared
  /// bottleneck uses this to attribute losses to the flows that suffered
  /// them — the per-flow "dropped packets" column of a competing-flow run.
  void set_drop_observer(std::function<void(const net::Packet&)> observer) {
    drop_observer_ = std::move(observer);
  }

 protected:
  // note_arrival/forward/drop are the one funnel every discipline's
  // packets pass through, so instrumenting them here gives all six qdiscs
  // (sender disciplines, the bottleneck TBF, both netems) their
  // enqueue/dequeue/drop spans without per-subclass hooks.
  void forward(net::Packet pkt) {
    counters_.count_out(pkt.size_bytes);
    // A qdisc can only forward what it accepted: emitting an uncounted
    // (duplicated or conjured) packet drives the implied backlog negative.
    QUICSTEPS_AUDIT(counters_.packets_queued() >= 0,
                    name_ + " forwarded a packet it never enqueued");
    QUICSTEPS_TRACE_SPAN(trace_bus_, obs::TraceStage::kQdiscDequeue,
                         trace_component_, loop_.now(), pkt);
    if (downstream_ != nullptr) downstream_->deliver(std::move(pkt));
  }
  void drop(const net::Packet& pkt) {
    counters_.count_drop(pkt.size_bytes);
    QUICSTEPS_AUDIT(counters_.packets_queued() >= 0,
                    name_ + " dropped a packet it never enqueued");
    QUICSTEPS_TRACE_SPAN(trace_bus_, obs::TraceStage::kQdiscDrop,
                         trace_component_, loop_.now(), pkt);
    if (drop_observer_) drop_observer_(pkt);
  }
  void note_arrival(const net::Packet& pkt) {
    counters_.count_in(pkt.size_bytes);
    QUICSTEPS_TRACE_SPAN(trace_bus_, obs::TraceStage::kQdiscEnqueue,
                         trace_component_, loop_.now(), pkt);
  }

  sim::EventLoop& loop_;

 private:
  std::string name_;
  net::PacketSink* downstream_;
  net::Counters counters_;
  std::function<void(const net::Packet&)> drop_observer_;
};

}  // namespace quicsteps::kernel
