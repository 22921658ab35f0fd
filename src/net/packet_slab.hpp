// Flat packet storage for the datapath.
//
// Moving a net::Packet into a std::function closure for every scheduled
// hop (NIC completion, netem delivery, receiver wakeup) would cost one
// heap allocation and two moves per packet per hop. The slab is instead
// struct-of-arrays storage addressed by a 32-bit generation-checked ref
// that rides as an event's payload (sim::EventLoop::post_drain_at,
// schedule_at), and slots recycle through a free list, so the slab
// allocates nothing per packet once its lanes reach the in-flight
// high-water mark. The slab owns everything a packet in flight carries:
// the Packet itself (plain data), an ACK packet's frame and a GSO
// carrier's segments. What a whole run allocates per wire data packet is
// counted on every benchmark traffic shape by tests/ack_alloc_test.cpp's
// SteadyState case.
//
// The ref rule: a Ref is minted only where user space hands a packet to
// the kernel — UdpSocket (each GSO segment included), a client sending
// its ACK, or a hop's deliver(const Packet&) (PacketHop below) — and
// retired where the endpoint has read it in place (retire()). Every
// kernel hop in between receives and forwards the 32-bit ref; the packet
// is written once, at put(). A hop that drops a packet retires its ref,
// so live() balances on every drop path.
//
// Lanes: the Packet values themselves are the cold lane; the hot lane
// holds each slot's generation, byte size, flow id and link, written at
// put(). Byte accounting (TBF tokens, qdisc counters, the receive buffer),
// flow routing (FlowTableSink), the span sampler's per-packet filter and
// the GSO check read the hot lane, so a hop that needs no other field
// never loads a packet that sat cold in a queue. A link is either the
// next segment of a GSO buffer, which travels as its carrier with the
// segments linked behind it (link(), next()), or the index of an ACK
// packet's frame in the frame pool (ack()). The pool holds as many frames
// as ACKs are in flight, not one per slot; retiring a ref returns its
// frame, and retiring a carrier retires its segments.
//
// Borrows: a hop that must see other fields (the tap's wire_time stamp,
// the NIC's LaunchTime check, FQ's and ETF's txtimes, a sampled flow's
// span, an endpoint) reads the packet in place through at(), and a
// transport reads an ACK's frame through ack(). A borrow never outlives
// the caller's use of the ref, and is never held across a put() or an
// ack() that attaches a frame: either may grow a vector and move every
// packet or frame in it.
//
// Ref layout: low 24 bits slot index, high 8 bits the slot's generation at
// put() time. retire(), at() and ack() audit the generation, so a stale
// ref — a recycled slot reached through a ref that was already retired —
// trips QUICSTEPS_AUDIT instead of silently aliasing another packet
// (tests/slab_test.cpp pins this).
//
// One slab is shared by every component on a network's datapath and every
// flow on the fabric (framework::BottleneckPath owns it); single-threaded
// like the loop that drives it.
#pragma once

#include <cstdint>
#include <type_traits>
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
  /// No packet: the end of a GSO chain. Slot kSlotMask is never handed
  /// out, so no ref equals it.
  static constexpr Ref kNoRef = ~Ref{0};

  /// Stores `pkt` and returns its ref. O(1), allocation-free once the
  /// high-water number of in-flight packets has been reached.
  Ref put(const Packet& pkt) {
    std::uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
      packets_[slot] = pkt;
    } else {
      slot = static_cast<std::uint32_t>(packets_.size());
      QUICSTEPS_AUDIT(slot < kSlotMask, "PacketSlab exceeded 2^24 - 1 slots");
      packets_.push_back(pkt);
      hot_.push_back(HotLane{});
    }
    HotLane& hot = hot_[slot];
    hot.size_bytes = static_cast<std::uint32_t>(packets_[slot].size_bytes);
    hot.flow = packets_[slot].flow;
    ++live_;
    return slot | (static_cast<std::uint32_t>(hot.gen) << kSlotBits);
  }

  /// Recycles the slot, its ACK frame and every segment linked behind it.
  /// The ref is dead afterwards: the slot's generation advances, so a
  /// second retire() through the same ref audits (recycled-slot
  /// aliasing).
  void retire(Ref ref) { recycle(checked_slot(ref)); }

  /// Copies the packet out and retires the ref.
  Packet take(Ref ref) {
    const std::uint32_t slot = checked_slot(ref);
    const Packet pkt = packets_[slot];
    recycle(slot);
    return pkt;
  }

  /// Borrows the packet in place, with retire()'s generation audit.
  Packet& at(Ref ref) { return packets_[checked_slot(ref)]; }

  /// Borrows the ACK frame of `ref`'s packet, first attaching an empty one
  /// from the frame pool if it has none. A reused frame keeps its block
  /// capacity, so rendering an ACK allocates nothing once the pool holds
  /// the ACKs in flight.
  TransportAck& ack(Ref ref) {
    HotLane& hot = hot_[checked_slot(ref)];
    if (hot.link_kind != Link::kFrame) {
      QUICSTEPS_AUDIT(hot.link_kind == Link::kNone,
                      "a GSO carrier or segment has no ACK frame");
      hot.link_kind = Link::kFrame;
      if (free_frames_.empty()) {
        hot.link = static_cast<std::uint32_t>(frames_.size());
        frames_.emplace_back();
      } else {
        hot.link = free_frames_.back();
        free_frames_.pop_back();
        TransportAck& frame = frames_[hot.link];
        frame.blocks.clear();
        frame.ack_delay = sim::Duration::zero();
        frame.max_data = 0;
      }
    }
    return frames_[hot.link];
  }

  /// GSO chains: links `next` behind `ref`, so next(ref) returns it and
  /// retiring `ref` retires it too. `ref` must have no link yet.
  void link(Ref ref, Ref next) {
    HotLane& hot = hot_[checked_slot(ref)];
    QUICSTEPS_AUDIT(hot.link_kind == Link::kNone && next != kNoRef,
                    "PacketSlab::link on a linked slot or to no packet");
    hot.link_kind = Link::kSegment;
    hot.link = next;
  }
  /// The ref linked behind `ref`, or kNoRef. A hot-lane read: a packet
  /// with a successor is a GSO carrier.
  Ref next(Ref ref) const {
    const HotLane& hot = hot_[ref & kSlotMask];
    return hot.link_kind == Link::kSegment ? hot.link : kNoRef;
  }
  /// Detaches and returns the ref linked behind `ref` (kNoRef when none):
  /// retiring `ref` then leaves it alone.
  Ref unlink(Ref ref) {
    const Ref following = next(ref);
    if (following != kNoRef) hot_[checked_slot(ref)].link_kind = Link::kNone;
    return following;
  }

  /// Hot-lane reads: no Packet cache line touched.
  std::uint32_t size_bytes(Ref ref) const {
    return hot_[ref & kSlotMask].size_bytes;
  }
  std::uint32_t flow(Ref ref) const { return hot_[ref & kSlotMask].flow; }

  /// Packets currently stored.
  std::size_t live() const { return live_; }
  /// Slots ever allocated (the in-flight high-water mark).
  std::size_t capacity() const { return packets_.size(); }
  /// ACK frames ever allocated (the high-water mark of ACKs in flight).
  std::size_t frame_capacity() const { return frames_.size(); }

 private:
  /// What a slot's link names.
  enum class Link : std::uint8_t { kNone, kSegment, kFrame };

  /// One 16-byte entry per slot: the generation check and the fields the
  /// byte accounting, flow routing, span sampling and GSO check read
  /// share a cache line access.
  struct HotLane {
    std::uint32_t size_bytes = 0;
    std::uint32_t flow = 0;
    std::uint32_t link = 0;  // a segment's ref or a frame's index
    std::uint8_t gen = 0;
    Link link_kind = Link::kNone;
  };
  static_assert(sizeof(HotLane) == 16);

  void recycle(std::uint32_t slot) {
    for (;;) {
      HotLane& hot = hot_[slot];
      const Link kind = hot.link_kind;
      hot.link_kind = Link::kNone;
      ++hot.gen;  // wraps mod 256; outstanding refs go stale
      free_.push_back(slot);
      --live_;
      if (kind == Link::kFrame) free_frames_.push_back(hot.link);
      if (kind != Link::kSegment) return;
      slot = checked_slot(hot.link);
    }
  }

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
  std::vector<TransportAck> frames_;  // the ACK frame pool
  std::vector<std::uint32_t> free_frames_;
  std::size_t live_ = 0;
};

// PacketSink::deliver_ref spells the ref as std::uint32_t (packet.hpp
// cannot include this header).
static_assert(std::is_same_v<PacketSlab::Ref, std::uint32_t>);

/// A kernel hop: a sink that works on slab refs. Every hop implements
/// deliver_ref() only.
class PacketHop : public PacketSink {
 public:
  explicit PacketHop(PacketSlab& slab) : slab_(slab) {}

  /// Puts `pkt` into the hop's slab and continues on the ref path: the
  /// kernel entry of the ideal server's and TCP's egress, and what tests
  /// call.
  void deliver(const Packet& pkt) { deliver_ref(slab_, slab_.put(pkt)); }
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
      slab_.retire(ref);
    }
  }

  PacketSlab& slab_;
};

}  // namespace quicsteps::net
