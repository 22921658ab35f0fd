// QUIC frame-level helpers.
//
// The simulator does not serialize wire images; packets carry structured
// metadata instead (see net::Packet). This header defines the constants and
// small helpers shared by the QUIC sender and receiver: datagram sizing and
// the received-packet-number interval set the ACK manager maintains.
#pragma once

#include <cstdint>
#include <vector>

#include "net/packet.hpp"

namespace quicsteps::quic {

/// Wire size of a full QUIC datagram in these experiments.
inline constexpr std::int64_t kDatagramSize = 1500;
/// Application payload per full datagram (wire size minus IP/UDP/QUIC
/// header and AEAD overhead); sets the goodput ceiling:
/// 40 Mbit/s * 1402/1500 = 37.4 Mbit/s, matching the paper's topline.
inline constexpr std::int64_t kPayloadPerDatagram = 1402;
/// Wire size of a pure ACK datagram.
inline constexpr std::int64_t kAckPacketSize = 60;

/// Ordered set of received byte ranges (stream reassembly bookkeeping on
/// the client; completion = one interval covering [0, total)), kept as
/// disjoint, non-touching ranges in one sorted vector. In-order data
/// extends or follows the last range; anything else costs a search.
class ByteIntervalSet {
 public:
  /// Adds [offset, offset + length); returns the number of NEW bytes.
  std::int64_t add(std::int64_t offset, std::int64_t length);
  std::int64_t covered_bytes() const { return covered_; }
  /// Contiguous prefix [0, n) fully received.
  std::int64_t contiguous_prefix() const;
  std::size_t interval_count() const { return intervals_.size(); }

 private:
  friend class PacketNumberSet;
  struct Range {
    std::int64_t start;
    std::int64_t end;  // exclusive
  };
  std::vector<Range> intervals_;  // ascending
  std::int64_t covered_ = 0;
};

/// Ordered set of received packet numbers (the receiver state behind QUIC
/// ACK ranges): number pn is the unit range [pn, pn + 1) of a
/// ByteIntervalSet, which RFC 9000's 62-bit packet numbers fit.
class PacketNumberSet {
 public:
  /// Inserts pn; returns false if it was already present (duplicate).
  bool insert(std::uint64_t pn);
  bool contains(std::uint64_t pn) const;

  /// Highest received packet number (0 if empty).
  std::uint64_t largest() const;
  std::size_t interval_count() const { return numbers_.interval_count(); }

  /// Appends the newest-first ACK blocks, at most `max_blocks`
  /// (min(interval_count(), max_blocks) of them), to `out`.
  void to_ack_blocks(std::size_t max_blocks,
                     std::vector<net::AckBlock>& out) const;

 private:
  ByteIntervalSet numbers_;
};

}  // namespace quicsteps::quic
