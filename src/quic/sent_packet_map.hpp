// Sender-side bookkeeping of unacknowledged packets, including the
// delivery-rate sampling state BBR consumes (a compact version of the
// rate-sample algorithm from draft-cheng-iccrg-delivery-rate-estimation).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "net/packet.hpp"
#include "sim/time.hpp"

namespace quicsteps::quic {

struct SentPacket {
  std::uint64_t pn = 0;
  std::int64_t bytes = 0;
  sim::Time time_sent;
  /// STREAM chunk carried (offset < 0 = none, e.g. a PING probe).
  std::int64_t stream_offset = -1;
  std::int64_t stream_length = 0;
  // Delivery-rate snapshot at send time.
  std::int64_t delivered_at_send = 0;
  sim::Time delivered_time_at_send;
  bool app_limited_at_send = false;
  // Flags last, so a record packs into 64 bytes.
  bool ack_eliciting = true;
  bool in_flight = true;
  bool fin = false;  // the STREAM chunk ends the stream
};

/// The packets a connection has sent and not yet seen acked or declared
/// lost. Packet numbers come from a counter (RFC 9000 §12.3), so the map
/// is a ring indexed by `pn - base`, as real RFC 9002 stacks keep it: an
/// add is an append, an ACK range is a walk over its slots, and there is
/// no node allocation or tree walk per packet. The ring is allocated on
/// the first add and grows to the widest span of outstanding numbers.
class SentPacketMap {
 public:
  /// Tracks `pkt`. Packet numbers must increase from add to add
  /// (audited).
  void add(SentPacket pkt);

  /// Removes every tracked packet covered by `blocks`; returns their bytes.
  /// `visit(const SentPacket&)` sees each once, just before it goes: block
  /// by block in the order given, ascending within a block.
  template <typename Visit>
  std::int64_t take_acked(const std::vector<net::AckBlock>& blocks,
                          Visit&& visit) {
    std::int64_t acked_bytes = 0;
    for (const auto& block : blocks) {
      // Numbers below base_ or at/after end_ are acked already or unsent.
      const std::uint64_t last = block.last < end_ ? block.last + 1 : end_;
      for (std::uint64_t pn = std::max(block.first, base_); pn < last; ++pn) {
        SentPacket& p = slot(pn);
        if (p.pn != pn) continue;
        acked_bytes += p.bytes;
        visit(static_cast<const SentPacket&>(p));
        erase(p);
      }
    }
    return acked_bytes;
  }

  /// Removes and returns the packet with number `pn` if still tracked.
  bool take(std::uint64_t pn, SentPacket* out);

  /// Pointers from find() and oldest() are valid until the next add().
  const SentPacket* find(std::uint64_t pn) const;
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  std::int64_t bytes_in_flight() const { return bytes_in_flight_; }
  /// Oldest unacked packet, nullptr when empty.
  const SentPacket* oldest() const {
    return size_ == 0 ? nullptr : &slot(base_);
  }

  /// Iterates tracked packets with pn < bound, ascending (loss-detection
  /// scan).
  template <typename Fn>
  void for_each_below(std::uint64_t bound, Fn&& fn) const {
    const std::uint64_t end = bound < end_ ? bound : end_;
    for (std::uint64_t pn = base_; pn < end; ++pn) {
      const SentPacket& p = slot(pn);
      if (p.pn == pn) fn(p);
    }
  }

 private:
  /// The pn of a ring slot that holds no packet; never a real number.
  static constexpr std::uint64_t kNoPacket = ~std::uint64_t{0};

  SentPacket& slot(std::uint64_t pn) { return ring_[pn & (ring_.size() - 1)]; }
  const SentPacket& slot(std::uint64_t pn) const {
    return ring_[pn & (ring_.size() - 1)];
  }
  /// Re-lays the ring at a power-of-two capacity of at least `span`.
  void grow(std::uint64_t span);
  /// Untracks a held packet and advances base_ past empty slots.
  void erase(SentPacket& p);

  /// slot(pn) holds packet pn exactly when its pn field equals pn; empty
  /// slots hold kNoPacket. Tracked numbers lie in [base_, end_), and
  /// slot(base_) holds a packet unless the map is empty.
  std::vector<SentPacket> ring_;  // power-of-two capacity (empty until add)
  std::uint64_t base_ = 0;
  std::uint64_t end_ = 0;  // one past the highest pn added
  std::size_t size_ = 0;
  std::int64_t bytes_in_flight_ = 0;
};

}  // namespace quicsteps::quic
