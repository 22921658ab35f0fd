// Flat packet storage for the datapath.
//
// Moving a net::Packet into a std::function closure for every scheduled
// hop (NIC completion, netem delivery, receiver wakeup) would cost one
// heap allocation and two moves per packet per hop. The slab is instead
// struct-of-arrays storage addressed by a 32-bit generation-checked ref
// that rides as an event's payload (sim::EventLoop::post_drain_at,
// schedule_at), and slots recycle through a free list, so the slab
// allocates nothing per packet once its lanes reach the in-flight
// high-water mark. What a whole run allocates per wire data packet (about
// one, almost all of it the transport's two per ACK) is counted on every
// benchmark traffic shape by tests/ack_alloc_test.cpp's SteadyState case.
//
// The ref rule: a Ref is minted where user space hands the packet to the
// kernel (UdpSocket::inject, or a hop's by-value deliver(): PacketHop
// below) and consumed where the receiving socket hands the packet to its
// endpoint (the default PacketSink::deliver_ref). Every kernel hop in
// between receives and forwards the 32-bit ref; the packet is written
// once at put() and moved out once at take(). A hop that drops a packet
// take()s its ref, so live() balances on every drop path. Only the NIC
// mints refs mid-path: it takes a GSO carrier out and puts each of its
// segments in.
//
// Lanes: the Packet values themselves are the cold lane; the hot lane
// holds each slot's generation, byte size and flow id, written at put().
// Byte accounting (TBF tokens, qdisc counters, the receive buffer), flow
// routing (FlowTableSink) and the span sampler's per-packet filter read
// the hot lane, so a hop that needs no other field never loads a packet
// that sat cold in a queue.
//
// Borrows: a hop that must see other fields (the tap's wire_time stamp,
// the NIC's GSO and LaunchTime checks, FQ's and ETF's txtimes, a sampled
// flow's span) reads the packet in place through at(). A borrow never
// outlives the hop's call, and is never held across a put(): put() may
// grow the cold lane's vector and move every packet in it.
//
// Ref layout: low 24 bits slot index, high 8 bits the slot's generation at
// put() time. take() and at() audit the generation, so a stale ref — a
// recycled slot reached through a ref that was already consumed — trips
// QUICSTEPS_AUDIT instead of silently aliasing another packet
// (tests/slab_test.cpp pins this).
//
// One slab is shared by every component on a network's datapath and every
// flow on the fabric (framework::BottleneckPath owns it); single-threaded
// like the loop that drives it.
#pragma once

#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "check/audit.hpp"
#include "net/packet.hpp"

namespace quicsteps::net {

class PacketSlab {
 public:
  /// Opaque slab ticket: pass to the event loop as a drain payload.
  using Ref = std::uint32_t;

  static constexpr std::uint32_t kSlotBits = 24;
  static constexpr std::uint32_t kSlotMask = (1u << kSlotBits) - 1;

  /// Stores `pkt` and returns its ref. O(1), allocation-free once the
  /// high-water number of in-flight packets has been reached.
  Ref put(Packet&& pkt) {
    std::uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
      packets_[slot] = std::move(pkt);
    } else {
      slot = static_cast<std::uint32_t>(packets_.size());
      QUICSTEPS_AUDIT(slot <= kSlotMask, "PacketSlab exceeded 2^24 slots");
      packets_.push_back(std::move(pkt));
      hot_.push_back(HotLane{});
    }
    HotLane& hot = hot_[slot];
    hot.size_bytes = static_cast<std::uint32_t>(packets_[slot].size_bytes);
    hot.flow = packets_[slot].flow;
    ++live_;
    return slot | (static_cast<std::uint32_t>(hot.gen) << kSlotBits);
  }

  /// Moves the packet out and recycles the slot. The ref is dead
  /// afterwards: the slot's generation advances, so a second take()
  /// through the same ref audits (recycled-slot aliasing).
  Packet take(Ref ref) {
    const std::uint32_t slot = checked_slot(ref);
    Packet pkt = std::move(packets_[slot]);
    ++hot_[slot].gen;  // wraps mod 256; outstanding refs go stale
    free_.push_back(slot);
    --live_;
    return pkt;
  }

  /// Borrows the packet in place, with take()'s generation audit. Valid
  /// until the hop's call returns or the next put(), whichever is first.
  Packet& at(Ref ref) { return packets_[checked_slot(ref)]; }

  /// Hot-lane reads: no Packet cache line touched.
  std::uint32_t size_bytes(Ref ref) const {
    return hot_[ref & kSlotMask].size_bytes;
  }
  std::uint32_t flow(Ref ref) const { return hot_[ref & kSlotMask].flow; }

  /// Packets currently stored.
  std::size_t live() const { return live_; }
  /// Slots ever allocated (the in-flight high-water mark).
  std::size_t capacity() const { return packets_.size(); }

  /// GSO buffer recycling. The socket draws a spent segment buffer here
  /// (null when none is free — it then allocates one, once), and the NIC
  /// returns the husk after moving the segments out at the driver
  /// boundary. Nothing holds a pool reference while a buffer is in
  /// flight, so the NIC owns the buffer alone when it segments it (it
  /// audits use_count() == 1) and moves the segments out instead of
  /// copying them. The socket moves segments into a husk element by
  /// element, and the stack's batch keeps its capacity too, so control
  /// block and vector capacity both amortize to the in-flight high-water
  /// mark of GSO bursts. (When the husk's vector was replaced by a batch
  /// regrown from empty for every burst, stock and paced GSO read 1.55
  /// allocations per wire data packet; 1.08 since.)
  std::shared_ptr<std::vector<Packet>> take_gso_buffer() {
    if (gso_buffers_.empty()) return nullptr;
    std::shared_ptr<std::vector<Packet>> buf =
        std::move(gso_buffers_.back());
    gso_buffers_.pop_back();
    return buf;
  }
  void put_gso_buffer(std::shared_ptr<std::vector<Packet>> buf) {
    gso_buffers_.push_back(std::move(buf));
  }

 private:
  /// One 12-byte entry per slot: the generation check and the fields the
  /// byte accounting, flow routing and span sampling read share a cache
  /// line access.
  struct HotLane {
    std::uint32_t size_bytes = 0;
    std::uint32_t flow = 0;
    std::uint8_t gen = 0;
  };

  std::uint32_t checked_slot(Ref ref) const {
    const std::uint32_t slot = ref & kSlotMask;
    QUICSTEPS_AUDIT(slot < packets_.size() &&
                        hot_[slot].gen == static_cast<std::uint8_t>(
                                              ref >> kSlotBits),
                    "stale PacketSlab ref (recycled-slot aliasing)");
    return slot;
  }

  std::vector<Packet> packets_;  // cold lane
  std::vector<HotLane> hot_;
  std::vector<std::uint32_t> free_;
  std::vector<std::shared_ptr<std::vector<Packet>>> gso_buffers_;
  std::size_t live_ = 0;
};

// PacketSink::deliver_ref spells the ref as std::uint32_t (packet.hpp
// cannot include this header).
static_assert(std::is_same_v<PacketSlab::Ref, std::uint32_t>);

/// A kernel hop: a sink that works on slab refs. The one by-value entry,
/// deliver(Packet), puts the packet into the hop's slab and continues on
/// the ref path — that put is where the packet enters the kernel for the
/// ideal server's and TCP's egress and for a client's ACKs, and what tests
/// call. Every hop implements deliver_ref() only.
class PacketHop : public PacketSink {
 public:
  explicit PacketHop(PacketSlab& slab) : slab_(slab) {}

  void deliver(Packet pkt) final {
    deliver_ref(slab_, slab_.put(std::move(pkt)));
  }
  void deliver_ref(PacketSlab& slab, PacketSlab::Ref ref) override = 0;

 protected:
  /// A hop keeps refs of its own slab only: a ref from another slab would
  /// alias an unrelated packet there.
  void check_slab([[maybe_unused]] const PacketSlab& slab) const {
    QUICSTEPS_AUDIT(&slab == &slab_, "ref handed to a hop of another slab");
  }
  /// Passes `ref` downstream, or retires the packet when nothing is wired.
  void hand_off(PacketSink* next, PacketSlab::Ref ref) {
    if (next != nullptr) {
      next->deliver_ref(slab_, ref);
    } else {
      (void)slab_.take(ref);
    }
  }

  PacketSlab& slab_;
};

}  // namespace quicsteps::net
