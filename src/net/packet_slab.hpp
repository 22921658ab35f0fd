// Flat packet storage for the datapath.
//
// Moving a net::Packet into a std::function closure for every scheduled
// hop (NIC completion, netem delivery, receiver wakeup) would cost one
// heap allocation and two moves per packet per hop. The slab is instead
// struct-of-arrays storage addressed by a 32-bit generation-checked ref
// that rides as an event's payload (sim::EventLoop::post_drain_at,
// schedule_at): the packet is written once at put()
// and moved out once at take(), and slots recycle through a free list so a
// steady-state run performs no per-packet allocation at all.
//
// Lanes: the Packet values themselves are the cold lane; the generation
// and size lanes are hot — token-bucket byte accounting and drain-train
// bookkeeping read them without pulling a whole Packet into cache.
//
// Ref layout: low 24 bits slot index, high 8 bits the slot's generation at
// put() time. take() audits the generation, so a stale ref — a recycled
// slot reached through a ref that was already consumed — trips
// QUICSTEPS_AUDIT instead of silently aliasing another packet
// (tests/slab_test.cpp pins this).
//
// One slab is shared by every component on a network's datapath and every
// flow on the fabric (framework::BottleneckPath owns it); single-threaded
// like the loop that drives it.
#pragma once

#include <cstdint>
#include <memory>
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
    ++live_;
    return slot | (static_cast<std::uint32_t>(hot.gen) << kSlotBits);
  }

  /// Moves the packet out and recycles the slot. The ref is dead
  /// afterwards: the slot's generation advances, so a second take()
  /// through the same ref audits (recycled-slot aliasing).
  Packet take(Ref ref) {
    const std::uint32_t slot = ref & kSlotMask;
    QUICSTEPS_AUDIT(slot < packets_.size() &&
                        hot_[slot].gen == static_cast<std::uint8_t>(
                                              ref >> kSlotBits),
                    "stale PacketSlab ref (recycled-slot aliasing)");
    Packet pkt = std::move(packets_[slot]);
    ++hot_[slot].gen;  // wraps mod 256; outstanding refs go stale
    free_.push_back(slot);
    --live_;
    return pkt;
  }

  /// Hot-lane size read: no Packet cache line touched.
  std::uint32_t size_bytes(Ref ref) const {
    return hot_[ref & kSlotMask].size_bytes;
  }

  /// Packets currently stored.
  std::size_t live() const { return live_; }
  /// Slots ever allocated (the in-flight high-water mark).
  std::size_t capacity() const { return packets_.size(); }

  /// GSO buffer recycling. The socket draws a spent segment buffer here
  /// (null when none is free — it then allocates one, once), and the NIC
  /// returns the husk after moving the segments out at the driver
  /// boundary. Nothing holds a pool reference while a buffer is in
  /// flight, so the NIC's unique-ownership fast path (use_count() == 1)
  /// still fires; control block and vector capacity both amortize to the
  /// in-flight high-water mark of GSO bursts.
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
  /// Buffers resting in the pool (test hook).
  std::size_t gso_buffers_pooled() const { return gso_buffers_.size(); }

 private:
  /// One 8-byte entry per slot: the generation check and the byte size the
  /// token loop reads share a cache line access.
  struct HotLane {
    std::uint32_t size_bytes = 0;
    std::uint8_t gen = 0;
  };

  std::vector<Packet> packets_;  // cold lane
  std::vector<HotLane> hot_;
  std::vector<std::uint32_t> free_;
  std::vector<std::shared_ptr<std::vector<Packet>>> gso_buffers_;
  std::size_t live_ = 0;
};

}  // namespace quicsteps::net
