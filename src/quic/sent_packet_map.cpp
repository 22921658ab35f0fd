#include "quic/sent_packet_map.hpp"

#include <algorithm>
#include <utility>

#include "check/audit.hpp"

namespace quicsteps::quic {

void SentPacketMap::add(SentPacket pkt) {
  QUICSTEPS_AUDIT(pkt.pn >= end_ && pkt.pn != kNoPacket,
                  "SentPacketMap: packet numbers must increase");
  if (size_ == 0) base_ = pkt.pn;  // nothing outstanding: restart here
  if (pkt.pn - base_ >= ring_.size()) grow(pkt.pn - base_ + 1);
  if (pkt.in_flight) bytes_in_flight_ += pkt.bytes;
  end_ = pkt.pn + 1;
  slot(pkt.pn) = std::move(pkt);
  ++size_;
}

void SentPacketMap::grow(std::uint64_t span) {
  std::size_t capacity = ring_.empty() ? 16 : 2 * ring_.size();
  while (capacity < span) capacity *= 2;
  SentPacket empty;
  empty.pn = kNoPacket;
  std::vector<SentPacket> grown(capacity, empty);
  for (std::uint64_t pn = base_; pn < end_; ++pn) {
    const SentPacket& p = slot(pn);
    if (p.pn == pn) grown[pn & (capacity - 1)] = p;
  }
  ring_.swap(grown);
}

void SentPacketMap::erase(SentPacket& p) {
  if (p.in_flight) bytes_in_flight_ -= p.bytes;
  p.pn = kNoPacket;
  --size_;
  while (base_ < end_ && slot(base_).pn != base_) ++base_;
}

SentPacketMap::AckResult SentPacketMap::on_ack_blocks(
    const std::vector<net::AckBlock>& blocks) {
  AckResult result;
  for (const auto& block : blocks) {
    // Numbers below base_ or at/after end_ are acked already or unsent.
    const std::uint64_t last = block.last < end_ ? block.last + 1 : end_;
    for (std::uint64_t pn = std::max(block.first, base_); pn < last; ++pn) {
      SentPacket& p = slot(pn);
      if (p.pn != pn) continue;
      result.acked_bytes += p.bytes;
      result.newly_acked.push_back(p);
      erase(p);
    }
  }
  // Blocks arrive newest-first; report ascending for deterministic
  // processing.
  std::sort(result.newly_acked.begin(), result.newly_acked.end(),
            [](const SentPacket& a, const SentPacket& b) { return a.pn < b.pn; });
  return result;
}

bool SentPacketMap::take(std::uint64_t pn, SentPacket* out) {
  if (pn < base_ || pn >= end_) return false;
  SentPacket& p = slot(pn);
  if (p.pn != pn) return false;
  if (out != nullptr) *out = p;
  erase(p);
  return true;
}

const SentPacket* SentPacketMap::find(std::uint64_t pn) const {
  if (pn < base_ || pn >= end_) return nullptr;
  const SentPacket& p = slot(pn);
  return p.pn == pn ? &p : nullptr;
}

}  // namespace quicsteps::quic
