#include "quic/sent_packet_map.hpp"

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
  QUICSTEPS_AUDIT(bytes_in_flight_ >= 0,
                  "SentPacketMap: bytes in flight went negative");
  p.pn = kNoPacket;
  --size_;
  while (base_ < end_ && slot(base_).pn != base_) ++base_;
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
