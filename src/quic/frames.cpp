#include "quic/frames.hpp"

#include <algorithm>

namespace quicsteps::quic {

std::int64_t ByteIntervalSet::add(std::int64_t offset, std::int64_t length) {
  if (length <= 0) return 0;
  std::int64_t start = offset;
  std::int64_t end = offset + length;

  // In order: data past the last range opens a new one; data starting in
  // it extends it (it has no successor, so nothing else is absorbed).
  if (intervals_.empty() || start > intervals_.back().end) {
    intervals_.push_back(Range{start, end});
    covered_ += length;
    return length;
  }
  Range& last = intervals_.back();
  if (start >= last.start) {
    if (end <= last.end) return 0;  // fully covered already
    const std::int64_t new_bytes = end - last.end;
    last.end = end;
    covered_ += new_bytes;
    return new_bytes;
  }

  // Replace every range overlapping or touching [start, end) with their
  // union: they run from the first one ending at or after `start`.
  const auto lo = std::ranges::lower_bound(intervals_, start, {}, &Range::end);
  auto hi = lo;
  std::int64_t absorbed = 0;
  for (; hi != intervals_.end() && hi->start <= end; ++hi) {
    start = std::min(start, hi->start);
    end = std::max(end, hi->end);
    absorbed += hi->end - hi->start;
  }
  intervals_.insert(intervals_.erase(lo, hi), Range{start, end});
  const std::int64_t new_bytes = (end - start) - absorbed;
  covered_ += new_bytes;
  return new_bytes;
}

std::int64_t ByteIntervalSet::contiguous_prefix() const {
  if (intervals_.empty() || intervals_.front().start != 0) return 0;
  return intervals_.front().end;
}

bool PacketNumberSet::insert(std::uint64_t pn) {
  return numbers_.add(static_cast<std::int64_t>(pn), 1) == 1;
}

bool PacketNumberSet::contains(std::uint64_t pn) const {
  const auto n = static_cast<std::int64_t>(pn);
  const auto& ranges = numbers_.intervals_;
  // The first range ending above pn is the only one that can hold it.
  const auto it =
      std::ranges::upper_bound(ranges, n, {}, &ByteIntervalSet::Range::end);
  return it != ranges.end() && it->start <= n;
}

std::uint64_t PacketNumberSet::largest() const {
  const auto& ranges = numbers_.intervals_;
  return ranges.empty() ? 0 : static_cast<std::uint64_t>(ranges.back().end - 1);
}

void PacketNumberSet::to_ack_blocks(std::size_t max_blocks,
                                    std::vector<net::AckBlock>& out) const {
  const auto& ranges = numbers_.intervals_;
  if (ranges.empty() || max_blocks == 0) return;
  const auto block = [](const ByteIntervalSet::Range& r) {
    return net::AckBlock{static_cast<std::uint64_t>(r.start),
                         static_cast<std::uint64_t>(r.end - 1)};
  };
  // Newest ranges first; the OLDEST interval always rides along (it is the
  // cumulative ACK for the TCP model and cheap insurance for QUIC).
  const std::size_t count = std::min(ranges.size(), max_blocks);
  for (std::size_t i = 1; i < count; ++i) {
    out.push_back(block(ranges[ranges.size() - i]));
  }
  out.push_back(block(ranges.front()));
}

}  // namespace quicsteps::quic
