// Queueing-discipline base.
//
// A qdisc sits between the kernel socket layer and the NIC. Each model
// reproduces the scheduling semantics of its Linux counterpart that matter
// for pacing: whether SO_TXTIME release timestamps are honored (FQ, ETF),
// whether late packets are dropped (ETF), and whether the rate can be
// steered from user space (TBF cannot, which is why the paper dismisses it
// for QUIC).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "check/audit.hpp"
#include "net/counters.hpp"
#include "net/packet.hpp"
#include "net/packet_slab.hpp"
#include "obs/trace.hpp"
#include "sim/event_loop.hpp"

namespace quicsteps::kernel {

/// Every discipline is a slab hop: it receives, holds and forwards refs
/// into the shared net::PacketSlab, and reads byte sizes and flow ids off
/// the slab's hot lane.
class Qdisc : public net::PacketHop, public obs::TraceSource {
 public:
  Qdisc(sim::EventLoop& loop, net::PacketSlab& slab, std::string name,
        net::PacketSink* downstream)
      : net::PacketHop(slab),
        loop_(loop),
        name_(std::move(name)),
        downstream_(downstream) {}
  // Scheduled events and drain channels hold `this`.
  Qdisc(const Qdisc&) = delete;
  Qdisc& operator=(const Qdisc&) = delete;

  const std::string& name() const { return name_; }
  const net::Counters& counters() const { return counters_; }

  /// Live queue depth in packets for conservation auditing, or -1 when the
  /// discipline does not report one (only sign/edge invariants then apply
  /// to its stage). Disciplines that hold packets should override this
  /// with their actual structure size — the auditor cross-checks it
  /// against the counter-implied backlog, which catches miscounted holds.
  virtual std::int64_t backlog_packets() const { return -1; }

  /// Observes the flow id of every dropped packet (after it is counted).
  /// A shared bottleneck uses this to attribute losses to the flows that
  /// suffered them — the per-flow "dropped packets" column of a
  /// competing-flow run.
  void set_drop_observer(std::function<void(std::uint32_t flow)> observer) {
    drop_observer_ = std::move(observer);
  }

 protected:
  // note_arrival/forward/drop are the one funnel every discipline's
  // packets pass through, so instrumenting them here gives all six qdiscs
  // (sender disciplines, the bottleneck TBF, both netems) their
  // enqueue/dequeue/drop spans without per-subclass hooks. None of them
  // loads the packet: sizes and flow ids come off the slab's hot lane.
  void forward(net::PacketSlab::Ref ref) {
    counters_.count_out(slab_.size_bytes(ref));
    // A qdisc can only forward what it accepted: emitting an uncounted
    // (duplicated or conjured) packet drives the implied backlog negative.
    QUICSTEPS_AUDIT(counters_.packets_queued() >= 0,
                    name_ + " forwarded a packet it never enqueued");
    QUICSTEPS_TRACE_SPAN(trace_bus_, obs::TraceStage::kQdiscDequeue,
                         trace_component_, loop_.now(), slab_, ref);
    hand_off(downstream_, ref);
  }
  /// Counts the drop and retires the packet: the ref is dead afterwards.
  void drop(net::PacketSlab::Ref ref) {
    counters_.count_drop(slab_.size_bytes(ref));
    QUICSTEPS_AUDIT(counters_.packets_queued() >= 0,
                    name_ + " dropped a packet it never enqueued");
    QUICSTEPS_TRACE_SPAN(trace_bus_, obs::TraceStage::kQdiscDrop,
                         trace_component_, loop_.now(), slab_, ref);
    if (drop_observer_) drop_observer_(slab_.flow(ref));
    (void)slab_.take(ref);
  }
  void note_arrival(net::PacketSlab& slab, net::PacketSlab::Ref ref) {
    check_slab(slab);
    counters_.count_in(slab_.size_bytes(ref));
    QUICSTEPS_TRACE_SPAN(trace_bus_, obs::TraceStage::kQdiscEnqueue,
                         trace_component_, loop_.now(), slab_, ref);
  }

  sim::EventLoop& loop_;

 private:
  std::string name_;
  net::PacketSink* downstream_;
  net::Counters counters_;
  std::function<void(std::uint32_t flow)> drop_observer_;
};

/// Held refs in release order, for the disciplines that honor SO_TXTIME
/// (FQ, ETF): a min-heap on (release time, arrival order), so packets with
/// the same release time leave in the order they arrived. It sifts 24-byte
/// {at, seq, ref} entries, never packets.
class TxtimeHeap {
 public:
  void push(sim::Time at, net::PacketSlab::Ref ref) {
    heap_.push_back({at, next_seq_++, ref});
    std::push_heap(heap_.begin(), heap_.end(), &TxtimeHeap::releases_later);
  }
  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }
  /// Release time of the earliest entry; requires !empty().
  sim::Time head() const { return heap_.front().at; }
  /// Removes the earliest entry and returns its ref.
  net::PacketSlab::Ref pop() {
    std::pop_heap(heap_.begin(), heap_.end(), &TxtimeHeap::releases_later);
    const net::PacketSlab::Ref ref = heap_.back().ref;
    heap_.pop_back();
    return ref;
  }

 private:
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

  std::vector<Entry> heap_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace quicsteps::kernel
