// Unit + integration tests for the QUIC transport: interval sets, RTT
// estimation, the ACK manager's delayed-ACK policy, loss detection
// thresholds, connection send/ack/retransmit flow, and an end-to-end
// transfer over a lossy bottleneck using the reference server.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "check/audit.hpp"
#include "kernel/qdisc_netem.hpp"
#include "kernel/qdisc_tbf.hpp"
#include "net/packet_slab.hpp"
#include "quic/ack_manager.hpp"
#include "quic/client.hpp"
#include "quic/connection.hpp"
#include "quic/frames.hpp"
#include "quic/loss_detection.hpp"
#include "quic/rtt_estimator.hpp"
#include "quic/server.hpp"

namespace quicsteps::quic {
namespace {

using namespace quicsteps::sim::literals;
using net::AckBlock;
using net::DataRate;
using net::Packet;
using net::TransportAck;
using sim::Duration;
using sim::EventLoop;
using sim::Time;

// ------------------------------------------------------------ interval sets

TEST(PacketNumberSet, MergesAdjacentAndDetectsDuplicates) {
  PacketNumberSet set;
  EXPECT_TRUE(set.insert(1));
  EXPECT_TRUE(set.insert(3));
  EXPECT_EQ(set.interval_count(), 2u);
  EXPECT_TRUE(set.insert(2));  // bridges 1..3
  EXPECT_EQ(set.interval_count(), 1u);
  EXPECT_FALSE(set.insert(2));  // duplicate
  EXPECT_TRUE(set.contains(3));
  EXPECT_FALSE(set.contains(4));
  EXPECT_EQ(set.largest(), 3u);
}

TEST(PacketNumberSet, AckBlocksNewestFirst) {
  PacketNumberSet set;
  for (std::uint64_t pn : {1, 2, 3, 7, 8, 10}) set.insert(pn);
  std::vector<AckBlock> blocks;
  set.to_ack_blocks(8, blocks);
  ASSERT_EQ(blocks.size(), 3u);
  EXPECT_EQ(blocks[0].first, 10u);
  EXPECT_EQ(blocks[0].last, 10u);
  EXPECT_EQ(blocks[1].first, 7u);
  EXPECT_EQ(blocks[1].last, 8u);
  EXPECT_EQ(blocks[2].first, 1u);
  EXPECT_EQ(blocks[2].last, 3u);
}

TEST(PacketNumberSet, BlockLimitKeepsNewest) {
  PacketNumberSet set;
  for (std::uint64_t pn = 0; pn < 20; pn += 2) set.insert(pn);
  std::vector<AckBlock> blocks;
  set.to_ack_blocks(3, blocks);
  ASSERT_EQ(blocks.size(), 3u);
  EXPECT_EQ(blocks[0].last, 18u);
}

TEST(ByteIntervalSet, CountsNewBytesOnly) {
  ByteIntervalSet set;
  EXPECT_EQ(set.add(0, 100), 100);
  EXPECT_EQ(set.add(50, 100), 50);   // half overlap
  EXPECT_EQ(set.add(0, 150), 0);     // fully covered
  EXPECT_EQ(set.covered_bytes(), 150);
  EXPECT_EQ(set.contiguous_prefix(), 150);
}

TEST(ByteIntervalSet, GapBlocksPrefix) {
  ByteIntervalSet set;
  set.add(0, 100);
  set.add(200, 100);
  EXPECT_EQ(set.covered_bytes(), 200);
  EXPECT_EQ(set.contiguous_prefix(), 100);
  set.add(100, 100);  // fill the gap
  EXPECT_EQ(set.contiguous_prefix(), 300);
  EXPECT_EQ(set.interval_count(), 1u);
}

// -------------------------------------------------------------------- RTT

TEST(RttEstimator, FirstSampleInitializes) {
  RttEstimator rtt;
  rtt.update(40_ms, Duration::zero());
  EXPECT_EQ(rtt.smoothed(), 40_ms);
  EXPECT_EQ(rtt.rttvar(), 20_ms);
  EXPECT_EQ(rtt.min(), 40_ms);
}

TEST(RttEstimator, EwmaConverges) {
  RttEstimator rtt;
  rtt.update(40_ms, Duration::zero());
  for (int i = 0; i < 100; ++i) rtt.update(50_ms, Duration::zero());
  EXPECT_NEAR(rtt.smoothed().to_millis(), 50.0, 1.0);
  EXPECT_EQ(rtt.min(), 40_ms);
}

TEST(RttEstimator, AckDelaySubtractedOnlyAboveMin) {
  RttEstimator rtt;
  rtt.update(40_ms, Duration::zero());
  // 45 ms sample with 10 ms ack delay -> adjusted 35 ms would dip below
  // min (40 ms), so the raw sample must be used.
  rtt.update(45_ms, 10_ms);
  EXPECT_GT(rtt.smoothed(), 39_ms);
  // 60 ms sample with 10 ms delay -> adjusted 50 ms, still >= min.
  RttEstimator rtt2;
  rtt2.update(40_ms, Duration::zero());
  rtt2.update(60_ms, 10_ms);
  EXPECT_LT(rtt2.smoothed(), 43_ms);  // (40*7 + 50)/8 = 41.25
}

TEST(RttEstimator, PtoIntervalFormula) {
  RttEstimator rtt;
  rtt.update(40_ms, Duration::zero());
  // srtt + max(4*rttvar, 1ms) + max_ack_delay = 40 + 80 + 25.
  EXPECT_EQ(rtt.pto_interval(), 145_ms);
}

// ------------------------------------------------------------- AckManager

TEST(AckManager, AcksEverySecondElicitingPacket) {
  AckManager mgr;
  EXPECT_TRUE(mgr.on_packet_received(1, true, Time::zero() + 1_ms));
  EXPECT_FALSE(mgr.ack_due_now());
  EXPECT_TRUE(mgr.on_packet_received(2, true, Time::zero() + 2_ms));
  EXPECT_TRUE(mgr.ack_due_now());
}

TEST(AckManager, DelayedAckDeadline) {
  AckManager mgr;
  mgr.on_packet_received(1, true, Time::zero() + 1_ms);
  EXPECT_EQ(mgr.ack_deadline(), Time::zero() + 26_ms);  // +25 ms max delay
}

TEST(AckManager, BuildAckClearsPendingAndReportsDelay) {
  AckManager mgr;
  mgr.on_packet_received(1, true, Time::zero() + 1_ms);
  mgr.on_packet_received(2, true, Time::zero() + 2_ms);
  auto ack = mgr.build_ack(Time::zero() + 5_ms);
  EXPECT_EQ(ack->largest(), 2u);
  EXPECT_EQ(ack->ack_delay, 3_ms);
  EXPECT_FALSE(mgr.has_pending());
}

TEST(AckManager, DuplicateDoesNotRetrigger) {
  AckManager mgr;
  mgr.on_packet_received(1, true, Time::zero() + 1_ms);
  EXPECT_FALSE(mgr.on_packet_received(1, true, Time::zero() + 2_ms));
  EXPECT_FALSE(mgr.ack_due_now());
}

// ---------------------------------------------------------- LossDetection

SentPacket sent_pkt(std::uint64_t pn, Time at) {
  SentPacket p;
  p.pn = pn;
  p.bytes = kDatagramSize;
  p.time_sent = at;
  p.stream_offset = static_cast<std::int64_t>(pn) * kPayloadPerDatagram;
  p.stream_length = kPayloadPerDatagram;
  return p;
}

TEST(LossDetectionTest, PacketThresholdDeclaresLoss) {
  SentPacketMap map;
  for (std::uint64_t pn = 1; pn <= 5; ++pn) {
    map.add(sent_pkt(pn, Time::zero() + Duration::millis(pn)));
  }
  RttEstimator rtt;
  rtt.update(40_ms, Duration::zero());
  LossDetection ld;
  // largest acked = 5: packets 1 and 2 are >= 3 behind.
  auto result = ld.detect(map, 5, rtt, Time::zero() + 10_ms);
  ASSERT_EQ(result.lost.size(), 2u);
  EXPECT_EQ(result.lost[0].pn, 1u);
  EXPECT_EQ(result.lost[1].pn, 2u);
  EXPECT_EQ(map.size(), 3u);
}

TEST(LossDetectionTest, TimeThresholdDeclaresLoss) {
  SentPacketMap map;
  map.add(sent_pkt(1, Time::zero() + 1_ms));
  map.add(sent_pkt(2, Time::zero() + 100_ms));
  RttEstimator rtt;
  rtt.update(40_ms, Duration::zero());
  LossDetection ld;
  // largest acked = 2 (pn 1 only 1 behind, below packet threshold), but
  // pn 1 was sent 9/8*40=45 ms before now -> time threshold fires.
  auto result = ld.detect(map, 2, rtt, Time::zero() + 50_ms);
  ASSERT_EQ(result.lost.size(), 1u);
  EXPECT_EQ(result.lost[0].pn, 1u);
}

TEST(LossDetectionTest, SetsNextLossTimeForYoungPackets) {
  SentPacketMap map;
  map.add(sent_pkt(1, Time::zero() + 30_ms));
  RttEstimator rtt;
  rtt.update(40_ms, Duration::zero());
  LossDetection ld;
  auto result = ld.detect(map, 2, rtt, Time::zero() + 40_ms);
  EXPECT_TRUE(result.lost.empty());
  EXPECT_EQ(result.next_loss_time, Time::zero() + 75_ms);  // 30 + 45
}

TEST(LossDetectionTest, PersistentCongestionOnLongSpan) {
  SentPacketMap map;
  map.add(sent_pkt(1, Time::zero() + 10_ms));
  map.add(sent_pkt(2, Time::zero() + 800_ms));
  RttEstimator rtt;
  rtt.update(40_ms, Duration::zero());  // PTO = 145 ms, 3*PTO = 435 ms
  LossDetection ld;
  auto result = ld.detect(map, 6, rtt, Time::zero() + 900_ms);
  ASSERT_EQ(result.lost.size(), 2u);
  EXPECT_TRUE(result.persistent_congestion);
}

TEST(LossDetectionTest, PtoBacksOffExponentially) {
  SentPacketMap map;
  map.add(sent_pkt(1, Time::zero()));
  RttEstimator rtt;
  rtt.update(40_ms, Duration::zero());
  LossDetection ld;
  const Time pto0 = ld.pto_deadline(map, rtt, 0);
  const Time pto2 = ld.pto_deadline(map, rtt, 2);
  EXPECT_EQ((pto2 - Time::zero()).ns(), 4 * (pto0 - Time::zero()).ns());
}

// -------------------------------------------------------------- Connection

Connection::Config small_transfer(std::int64_t bytes = 50 * kPayloadPerDatagram) {
  Connection::Config cfg;
  cfg.total_payload_bytes = bytes;
  cfg.cc.algorithm = cc::CcAlgorithm::kCubic;
  return cfg;
}

std::shared_ptr<const TransportAck> ack_of(std::uint64_t first,
                                           std::uint64_t last,
                                           Duration delay = Duration::zero()) {
  auto ack = std::make_shared<TransportAck>();
  ack->blocks = {AckBlock{first, last}};
  ack->ack_delay = delay;
  return ack;
}

Packet ack_packet(std::uint64_t first, std::uint64_t last,
                  Duration delay = Duration::zero()) {
  Packet pkt;
  pkt.kind = net::PacketKind::kQuicAck;
  pkt.size_bytes = kAckPacketSize;
  pkt.ack = ack_of(first, last, delay);
  return pkt;
}

// ------------------------------------- differential: SentPacketMap ring
//
// The pn-indexed ring against the std::map implementation it replaced,
// kept here as the oracle. Random sends (with gaps and non-in-flight
// packets), ACK block lists (newest-first, overlapping acked ranges,
// ranges below the base or past the largest sent), takes from the middle
// and for_each_below scans must agree on every return value and on
// size(), oldest() and bytes_in_flight() after every step.

class MapOracle {
 public:
  void add(SentPacket pkt) {
    if (pkt.in_flight) bytes_in_flight_ += pkt.bytes;
    packets_.emplace(pkt.pn, pkt);
  }
  /// Removes the packets `blocks` cover; returns them ascending.
  std::vector<SentPacket> take_acked(const std::vector<AckBlock>& blocks) {
    std::vector<SentPacket> acked;
    for (const auto& block : blocks) {
      auto it = packets_.lower_bound(block.first);
      while (it != packets_.end() && it->first <= block.last) {
        if (it->second.in_flight) bytes_in_flight_ -= it->second.bytes;
        acked.push_back(it->second);
        it = packets_.erase(it);
      }
    }
    std::sort(acked.begin(), acked.end(),
              [](const SentPacket& a, const SentPacket& b) {
                return a.pn < b.pn;
              });
    return acked;
  }
  bool take(std::uint64_t pn, SentPacket* out) {
    auto it = packets_.find(pn);
    if (it == packets_.end()) return false;
    if (it->second.in_flight) bytes_in_flight_ -= it->second.bytes;
    *out = it->second;
    packets_.erase(it);
    return true;
  }
  const SentPacket* find(std::uint64_t pn) const {
    auto it = packets_.find(pn);
    return it == packets_.end() ? nullptr : &it->second;
  }
  const SentPacket* oldest() const {
    return packets_.empty() ? nullptr : &packets_.begin()->second;
  }
  std::vector<std::uint64_t> below(std::uint64_t bound) const {
    std::vector<std::uint64_t> pns;
    for (const auto& [pn, pkt] : packets_) {
      if (pn >= bound) break;
      pns.push_back(pn);
    }
    return pns;
  }
  std::size_t size() const { return packets_.size(); }
  std::int64_t bytes_in_flight() const { return bytes_in_flight_; }

 private:
  std::map<std::uint64_t, SentPacket> packets_;
  std::int64_t bytes_in_flight_ = 0;
};

bool same_packet(const SentPacket& a, const SentPacket& b) {
  return a.pn == b.pn && a.bytes == b.bytes && a.time_sent == b.time_sent &&
         a.ack_eliciting == b.ack_eliciting && a.in_flight == b.in_flight &&
         a.stream_offset == b.stream_offset &&
         a.stream_length == b.stream_length && a.fin == b.fin &&
         a.delivered_at_send == b.delivered_at_send &&
         a.delivered_time_at_send == b.delivered_time_at_send &&
         a.app_limited_at_send == b.app_limited_at_send;
}

bool same_ptr(const SentPacket* a, const SentPacket* b) {
  if (a == nullptr || b == nullptr) return a == b;
  return same_packet(*a, *b);
}

TEST(SentPacketMapDifferential, RingMatchesOrderedMapOracle) {
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    sim::Rng rng(seed);
    SentPacketMap ring;
    MapOracle oracle;
    std::uint64_t next_pn = rng.uniform(0, 3);
    // Window bursts drive the ring through growth and back to empty.
    const std::int64_t window = rng.uniform(4, 300);
    for (int step = 0; step < 4000; ++step) {
      SCOPED_TRACE(::testing::Message() << "seed " << seed << " step "
                                        << step);
      const std::int64_t op = rng.uniform(0, 99);
      if (op < 45 && static_cast<std::int64_t>(oracle.size()) < window) {
        SentPacket pkt;
        pkt.pn = next_pn;
        pkt.bytes = rng.uniform(40, 1500);
        pkt.time_sent = Time::from_ns(static_cast<std::int64_t>(next_pn));
        pkt.in_flight = !rng.chance(0.1);
        pkt.ack_eliciting = pkt.in_flight;
        pkt.stream_offset = rng.chance(0.1) ? -1 : rng.uniform(0, 1 << 20);
        pkt.stream_length = rng.uniform(0, 1200);
        pkt.fin = rng.chance(0.05);
        pkt.delivered_at_send = rng.uniform(0, 1 << 20);
        pkt.app_limited_at_send = rng.chance(0.2);
        ring.add(pkt);
        oracle.add(pkt);
        // Now and then a number is skipped.
        next_pn += rng.chance(0.1)
                       ? static_cast<std::uint64_t>(rng.uniform(2, 40))
                       : 1;
      } else if (op < 80) {
        // Newest-first blocks; some overlap acked ranges, reach below
        // the oldest tracked number, or past the largest sent.
        std::vector<AckBlock> blocks;
        std::uint64_t last =
            next_pn + static_cast<std::uint64_t>(rng.uniform(0, 8));
        for (std::int64_t b = rng.uniform(1, 4); b > 0; --b) {
          const std::uint64_t len =
              std::min(last, static_cast<std::uint64_t>(rng.uniform(0, 30)));
          const std::uint64_t first = last - len;
          blocks.push_back({first, last});
          // The next, older block lies below this one, or overlaps it.
          const std::uint64_t gap =
              static_cast<std::uint64_t>(rng.uniform(0, 40));
          if (gap > first) break;
          last = first - gap + (rng.chance(0.2) ? 5 : 0);
        }
        if (rng.chance(0.1)) blocks.push_back({0, 1u << 30});  // everything
        // The ring visits in block order; sorted by number, the visited
        // packets must be the oracle's list.
        std::vector<SentPacket> got;
        const std::int64_t got_bytes = ring.take_acked(
            blocks, [&got](const SentPacket& p) { got.push_back(p); });
        std::sort(got.begin(), got.end(),
                  [](const SentPacket& a, const SentPacket& b) {
                    return a.pn < b.pn;
                  });
        const auto want = oracle.take_acked(blocks);
        std::int64_t want_bytes = 0;
        for (const auto& p : want) want_bytes += p.bytes;
        ASSERT_EQ(got_bytes, want_bytes);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t k = 0; k < got.size(); ++k) {
          ASSERT_TRUE(same_packet(got[k], want[k]));
        }
      } else if (op < 90) {
        const auto pn = static_cast<std::uint64_t>(
            rng.uniform(0, static_cast<std::int64_t>(next_pn) + 4));
        SentPacket got;
        SentPacket want;
        const bool took = ring.take(pn, &got);
        ASSERT_EQ(took, oracle.take(pn, &want));
        if (took) {
          ASSERT_TRUE(same_packet(got, want));
        }
        ASSERT_TRUE(same_ptr(ring.find(pn + 1), oracle.find(pn + 1)));
      } else {
        const auto bound = static_cast<std::uint64_t>(
            rng.uniform(0, static_cast<std::int64_t>(next_pn) + 4));
        std::vector<std::uint64_t> seen;
        ring.for_each_below(
            bound, [&seen](const SentPacket& p) { seen.push_back(p.pn); });
        ASSERT_EQ(seen, oracle.below(bound));
      }
      ASSERT_EQ(ring.size(), oracle.size());
      ASSERT_EQ(ring.empty(), oracle.size() == 0);
      ASSERT_EQ(ring.bytes_in_flight(), oracle.bytes_in_flight());
      ASSERT_TRUE(same_ptr(ring.oldest(), oracle.oldest()));
    }
  }
}

TEST(SentPacketMapTest, DecreasingPacketNumberTripsTheAudit) {
  if (!check::kAuditEnabled) GTEST_SKIP() << "audit compiled out";
  std::vector<std::string> failures;
  check::set_audit_handler([&failures](const check::AuditFailure& failure) {
    failures.push_back(failure.to_string());
  });
  SentPacketMap map;
  map.add(sent_pkt(5, Time::zero()));
  map.add(sent_pkt(5, Time::zero()));  // pn must increase
  check::set_audit_handler({});
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_NE(failures[0].find("must increase"), std::string::npos);
}

// ------------------------------ differential: flat interval sets
//
// PacketNumberSet against a std::set of the numbers it holds, and
// ByteIntervalSet against a byte bitmap. Random inserts from a sliding
// window (in order, skipped ahead, late, duplicated, or never: a
// permanent gap) and random adds (touching, overlapping, contained, out
// of order) must agree on every return value and on the sets' shape
// after every step. The ACK blocks are re-rendered from the oracle, so
// the content of every ACK the receiver sends is pinned.

/// What to_ack_blocks(max_blocks) must render from `pns`: its maximal
/// runs newest first, at most max_blocks, the oldest run always last.
std::vector<AckBlock> oracle_ack_blocks(const std::set<std::uint64_t>& pns,
                                        std::size_t max_blocks) {
  std::vector<AckBlock> blocks;
  if (pns.empty() || max_blocks == 0) return blocks;
  const std::uint64_t lowest = *pns.begin();
  for (auto it = pns.rbegin(); blocks.size() + 1 < max_blocks;) {
    AckBlock run{*it, *it};
    for (++it; it != pns.rend() && *it + 1 == run.first; ++it) {
      run.first = *it;
    }
    if (run.first == lowest) break;
    blocks.push_back(run);
  }
  AckBlock oldest{lowest, lowest};
  for (auto it = std::next(pns.begin());
       it != pns.end() && *it == oldest.last + 1; ++it) {
    oldest.last = *it;
  }
  blocks.push_back(oldest);
  return blocks;
}

TEST(PacketNumberSetDifferential, FlatIntervalsMatchSetOracle) {
  constexpr std::size_t kMaxBlocks[] = {0, 1, 2, 3, 32};
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    sim::Rng rng(seed);
    PacketNumberSet set;
    std::set<std::uint64_t> oracle;
    std::size_t runs = 0;  // maximal runs in the oracle
    std::uint64_t next = rng.uniform(0, 3);
    const std::int64_t window = rng.uniform(2, 64);
    for (int step = 0; step < 2000; ++step) {
      SCOPED_TRACE(::testing::Message() << "seed " << seed << " step "
                                        << step);
      const std::int64_t op = rng.uniform(0, 99);
      std::uint64_t pn = next;
      if (op < 55) {
        ++next;  // in order
      } else if (op < 65) {
        // Ahead: the numbers skipped arrive late or never.
        pn = next + static_cast<std::uint64_t>(rng.uniform(1, 6));
        next = pn + 1;
      } else {
        // Late or duplicate, from the window below `next`.
        pn = next - std::min(next, 1 + static_cast<std::uint64_t>(
                                           rng.uniform(0, window)));
      }
      const bool fresh = oracle.insert(pn).second;
      if (fresh) {
        const bool below = pn > 0 && oracle.count(pn - 1) != 0;
        const bool above = oracle.count(pn + 1) != 0;
        runs = runs + 1 - (below ? 1 : 0) - (above ? 1 : 0);
      }
      ASSERT_EQ(set.insert(pn), fresh);
      ASSERT_TRUE(set.contains(pn));
      const std::uint64_t probe =
          next + 8 -
          std::min(next + 8, static_cast<std::uint64_t>(
                                 rng.uniform(0, 2 * window + 16)));
      ASSERT_EQ(set.contains(probe), oracle.count(probe) != 0);
      ASSERT_EQ(set.largest(), *oracle.rbegin());
      ASSERT_EQ(set.interval_count(), runs);
      for (const std::size_t k : kMaxBlocks) {
        std::vector<AckBlock> got;
        set.to_ack_blocks(k, got);
        const auto want = oracle_ack_blocks(oracle, k);
        ASSERT_EQ(got.size(), want.size()) << "k=" << k;
        for (std::size_t b = 0; b < got.size(); ++b) {
          ASSERT_EQ(got[b].first, want[b].first) << "k=" << k << " b=" << b;
          ASSERT_EQ(got[b].last, want[b].last) << "k=" << k << " b=" << b;
        }
      }
    }
  }
}

TEST(ByteIntervalSetDifferential, FlatIntervalsMatchByteBitmap) {
  constexpr std::int64_t kSpace = 8192;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    sim::Rng rng(seed);
    ByteIntervalSet set;
    std::vector<char> bitmap(kSpace, 0);
    std::int64_t covered = 0;
    std::int64_t cursor = 0;  // in-order delivery point
    for (int step = 0; step < 400; ++step) {
      SCOPED_TRACE(::testing::Message() << "seed " << seed << " step "
                                        << step);
      const std::int64_t op = rng.uniform(0, 99);
      std::int64_t offset = 0;
      std::int64_t length = 0;
      if (op < 40 && cursor < kSpace) {
        // In order: touches the end of what came before.
        offset = cursor;
        length = rng.uniform(1, 48);
      } else if (op < 60) {
        // Overlaps the in-order edge from below.
        offset = std::max<std::int64_t>(0, cursor - rng.uniform(0, 32));
        length = rng.uniform(0, 64);
      } else {
        // Anywhere: out of order, contained, or spanning several ranges.
        offset = rng.uniform(0, kSpace - 1);
        length = rng.uniform(0, 120);
      }
      length = std::min(length, kSpace - offset);
      cursor = std::max(cursor, offset + length);

      std::int64_t want = 0;
      for (std::int64_t b = offset; b < offset + length; ++b) {
        if (bitmap[static_cast<std::size_t>(b)] == 0) ++want;
        bitmap[static_cast<std::size_t>(b)] = 1;
      }
      covered += want;
      ASSERT_EQ(set.add(offset, length), want);
      ASSERT_EQ(set.covered_bytes(), covered);
      std::int64_t prefix = 0;
      while (prefix < kSpace && bitmap[static_cast<std::size_t>(prefix)]) {
        ++prefix;
      }
      ASSERT_EQ(set.contiguous_prefix(), prefix);
      std::size_t runs = 0;
      for (std::size_t b = 0; b < bitmap.size(); ++b) {
        if (bitmap[b] && (b == 0 || !bitmap[b - 1])) ++runs;
      }
      ASSERT_EQ(set.interval_count(), runs);
    }
  }
}

TEST(ConnectionTest, BuildsSequentialChunks) {
  Connection conn(small_transfer());
  auto p1 = conn.build_packet(Time::zero(), Time::zero());
  auto p2 = conn.build_packet(Time::zero(), Time::zero());
  EXPECT_EQ(p1.packet_number + 1, p2.packet_number);
  EXPECT_EQ(p1.stream_offset, 0);
  EXPECT_EQ(p2.stream_offset, kPayloadPerDatagram);
  EXPECT_EQ(conn.bytes_in_flight(), p1.size_bytes + p2.size_bytes);
}

TEST(ConnectionTest, CongestionBlockedAtInitialWindow) {
  Connection conn(small_transfer());
  int sent = 0;
  while (!conn.congestion_blocked() && sent < 100) {
    conn.build_packet(Time::zero(), Time::zero());
    ++sent;
  }
  EXPECT_EQ(sent, 10);  // RFC 9002 initial window = 10 datagrams
}

TEST(ConnectionTest, AckFreesWindowAndMeasuresRtt) {
  Connection conn(small_transfer());
  for (int i = 0; i < 10; ++i) conn.build_packet(Time::zero(), Time::zero());
  conn.on_ack_packet(ack_packet(1, 10), Time::zero() + 40_ms);
  EXPECT_EQ(conn.bytes_in_flight(), 0);
  EXPECT_EQ(conn.rtt().latest(), 40_ms);
  EXPECT_FALSE(conn.congestion_blocked());
}

TEST(ConnectionTest, LastChunkCarriesFin) {
  Connection conn(small_transfer(2 * kPayloadPerDatagram));
  auto p1 = conn.build_packet(Time::zero(), Time::zero());
  auto p2 = conn.build_packet(Time::zero(), Time::zero());
  EXPECT_FALSE(p1.fin);
  EXPECT_TRUE(p2.fin);
  EXPECT_FALSE(conn.has_data_to_send());
}

TEST(ConnectionTest, LossQueuesRetransmission) {
  Connection conn(small_transfer());
  for (int i = 0; i < 10; ++i) conn.build_packet(Time::zero(), Time::zero());
  // ACK 4..10, leaving 1..3 behind by more than the packet threshold.
  conn.on_ack_packet(ack_packet(4, 10), Time::zero() + 40_ms);
  EXPECT_EQ(conn.stats().packets_declared_lost, 3);
  ASSERT_TRUE(conn.has_data_to_send());
  auto retx = conn.build_packet(Time::zero() + 41_ms, Time::zero() + 41_ms);
  EXPECT_EQ(retx.stream_offset, 0);  // oldest lost chunk first
  EXPECT_GT(retx.packet_number, 10u);  // new packet number, QUIC-style
}

TEST(ConnectionTest, CompletionRequiresAllBytesAcked) {
  Connection conn(small_transfer(3 * kPayloadPerDatagram));
  conn.build_packet(Time::zero(), Time::zero());
  conn.build_packet(Time::zero(), Time::zero());
  conn.build_packet(Time::zero(), Time::zero());
  conn.on_ack_packet(ack_packet(1, 2), Time::zero() + 40_ms);
  EXPECT_FALSE(conn.transfer_complete());
  conn.on_ack_packet(ack_packet(3, 3), Time::zero() + 41_ms);
  EXPECT_TRUE(conn.transfer_complete());
  EXPECT_EQ(conn.stats().completion_time, Time::zero() + 41_ms);
}

TEST(ConnectionTest, PacingRateInfiniteBeforeFirstRttSample) {
  Connection conn(small_transfer());
  EXPECT_TRUE(conn.pacing_rate().is_infinite());
  for (int i = 0; i < 10; ++i) conn.build_packet(Time::zero(), Time::zero());
  conn.on_ack_packet(ack_packet(1, 10), Time::zero() + 40_ms);
  EXPECT_FALSE(conn.pacing_rate().is_infinite());
  // rate = 1.25 * cwnd / srtt; cwnd doubled to 30000 by the slow-start ack.
  const double expected =
      1.25 * static_cast<double>(conn.cwnd_bytes()) * 8.0 / 0.040;
  EXPECT_NEAR(static_cast<double>(conn.pacing_rate().bps()), expected,
              expected * 0.01);
}

TEST(ConnectionTest, PtoFiresAndProbes) {
  Connection conn(small_transfer());
  conn.build_packet(Time::zero(), Time::zero());
  const Time deadline = conn.next_timer_deadline();
  EXPECT_FALSE(deadline.is_infinite());
  conn.on_timer(deadline);
  EXPECT_EQ(conn.stats().pto_fired, 1);
  EXPECT_TRUE(conn.has_data_to_send());  // probe chunk queued
}

TEST(ConnectionTest, PtoProbePassesAFullWindow) {
  // RFC 9002 §6.2.4: probe packets MUST NOT be blocked by the congestion
  // controller. After a tail loss the lost packets still fill the window,
  // so a blocked probe would leave nothing to draw an ACK.
  Connection conn(small_transfer());
  for (int i = 0; i < 10; ++i) conn.build_packet(Time::zero(), Time::zero());
  ASSERT_TRUE(conn.congestion_blocked());
  conn.on_timer(conn.next_timer_deadline());
  EXPECT_FALSE(conn.congestion_blocked());  // the probe is owed
  const Packet probe = conn.build_packet(Time::zero() + 1_s,
                                         Time::zero() + 1_s);
  EXPECT_EQ(probe.stream_offset, 0);  // the oldest chunk
  EXPECT_TRUE(conn.congestion_blocked());  // paid off: the window rules
}

TEST(ConnectionTest, TracedConnectionPublishesOneSamplePerAckAndLoss) {
  obs::TraceBus bus;
  Connection::Config cfg = small_transfer();
  cfg.flow = 7;
  Connection traced(cfg);
  traced.set_trace(&bus, 3);
  Connection untraced(cfg);
  for (Connection* conn : {&traced, &untraced}) {
    for (int i = 0; i < 10; ++i) {
      conn->build_packet(Time::zero(), Time::zero());
    }
    // ACK 4..10: packets 1..3 are declared lost inside the ACK.
    conn->on_ack_packet(ack_packet(4, 10), Time::zero() + 40_ms);
    conn->on_ack_packet(ack_packet(4, 10), Time::zero() + 41_ms);  // dup
  }

  const obs::TraceData data = bus.take();
  EXPECT_TRUE(data.events.empty());
  // Two samples, both from the traced connection: the loss (declared
  // while the ACK is processed), then the ACK. The duplicate is no event.
  ASSERT_EQ(data.recovery.size(), 2u);
  const obs::RecoverySample& loss = data.recovery[0];
  EXPECT_EQ(loss.event, obs::RecoveryEvent::kLoss);
  EXPECT_EQ(loss.packets, 3u);
  EXPECT_EQ(loss.bytes, traced.stats().bytes_declared_lost);
  const obs::RecoverySample& ack = data.recovery[1];
  EXPECT_EQ(ack.event, obs::RecoveryEvent::kAck);
  EXPECT_EQ(ack.packets, 10u);  // the largest newly acked packet
  EXPECT_EQ(ack.bytes, 7 * kDatagramSize);
  EXPECT_EQ(ack.cwnd, traced.cwnd_bytes());
  EXPECT_EQ(ack.bytes_in_flight, 0);
  EXPECT_EQ(ack.smoothed_rtt, traced.rtt().smoothed());
  EXPECT_EQ(ack.pacing_rate, traced.pacing_rate());
  for (const obs::RecoverySample& sample : data.recovery) {
    EXPECT_EQ(sample.at, Time::zero() + 40_ms);
    EXPECT_EQ(sample.flow, 7u);
    EXPECT_EQ(sample.component, 3u);
  }
}

TEST(ConnectionTest, DuplicateAckIsIgnored) {
  Connection conn(small_transfer());
  for (int i = 0; i < 4; ++i) conn.build_packet(Time::zero(), Time::zero());
  conn.on_ack_packet(ack_packet(1, 2), Time::zero() + 40_ms);
  const auto cwnd = conn.cwnd_bytes();
  conn.on_ack_packet(ack_packet(1, 2), Time::zero() + 45_ms);
  EXPECT_EQ(conn.cwnd_bytes(), cwnd);
}

// ---------------------------------------------------- end-to-end transfer

struct Harness {
  EventLoop loop;
  net::PacketSlab slab;
  // The paper's path: server egress -> 40 Mbit/s TBF bottleneck (one
  // datagram of burst, the test's buffer as its limit) -> 20 ms netem ->
  // client; client ACKs -> 20 ms netem -> server.
  kernel::NetemQdisc ack_netem;
  ReferenceServer server;
  kernel::TbfQdisc bottleneck;
  kernel::NetemQdisc data_netem;
  Client client;

  class ToClient final : public net::PacketSink {
   public:
    explicit ToClient(Harness& h) : h_(h) {}
    void deliver(Packet pkt) override { h_.client.on_datagram(pkt); }
    Harness& h_;
  };
  class ToServer final : public net::PacketSink {
   public:
    explicit ToServer(Harness& h) : h_(h) {}
    void deliver(Packet pkt) override { h_.server.on_datagram(pkt); }
    Harness& h_;
  };
  ToClient to_client{*this};
  ToServer to_server{*this};

  /// The default buffer never fills.
  explicit Harness(std::int64_t payload_bytes,
                   std::int64_t buffer_bytes = std::int64_t{1} << 40,
                   cc::CcAlgorithm algo = cc::CcAlgorithm::kCubic)
      : ack_netem(loop, slab, {.delay = 20_ms}, sim::Rng(1), &to_server),
        server(loop,
               [&] {
                 Connection::Config cfg;
                 cfg.total_payload_bytes = payload_bytes;
                 cfg.cc.algorithm = algo;
                 cfg.cc.bbr_flavor = cc::BbrFlavor::kV2Lite;
                 return cfg;
               }(),
               &bottleneck),
        bottleneck(loop, slab,
                   {.rate = DataRate::megabits_per_second(40),
                    .burst_bytes = kDatagramSize,
                    .limit_bytes = buffer_bytes},
                   &data_netem),
        data_netem(loop, slab, {.delay = 20_ms}, sim::Rng(2), &to_client),
        client(loop, {.ack = {}, .expected_payload_bytes = payload_bytes},
               &ack_netem) {}
};

TEST(EndToEnd, LosslessTransferCompletes) {
  const std::int64_t payload = 200 * kPayloadPerDatagram;
  Harness h(payload);
  h.server.start();
  h.loop.run_until(Time::zero() + 30_s);
  EXPECT_TRUE(h.client.complete());
  EXPECT_TRUE(h.server.connection().transfer_complete());
  EXPECT_EQ(h.client.stats().payload_bytes_received, payload);
  EXPECT_EQ(h.server.connection().stats().packets_declared_lost, 0);
}

TEST(EndToEnd, LossyBottleneckStillCompletes) {
  const std::int64_t payload = 500 * kPayloadPerDatagram;
  // Tiny 8-packet buffer forces drops during slow start.
  Harness h(payload, 8 * kDatagramSize);
  h.server.start();
  h.loop.run_until(Time::zero() + 60_s);
  EXPECT_TRUE(h.client.complete()) << "transfer stalled";
  EXPECT_GT(h.server.connection().stats().packets_declared_lost, 0);
  // Every payload byte arrived exactly once in the interval set.
  EXPECT_EQ(h.client.received().covered_bytes(), payload);
}

TEST(EndToEnd, RttEstimateMatchesPathRtt) {
  Harness h(200 * kPayloadPerDatagram);
  h.server.start();
  h.loop.run_until(Time::zero() + 30_s);
  // 40 ms propagation + serialization; smoothed RTT must sit close above.
  EXPECT_GE(h.server.connection().rtt().min(), 40_ms);
  EXPECT_LT(h.server.connection().rtt().min(), 43_ms);
}

TEST(EndToEnd, BbrTransferCompletes) {
  const std::int64_t payload = 500 * kPayloadPerDatagram;
  Harness h(payload, 40 * kDatagramSize, cc::CcAlgorithm::kBbr);
  h.server.start();
  h.loop.run_until(Time::zero() + 60_s);
  EXPECT_TRUE(h.client.complete());
  EXPECT_TRUE(h.server.connection().controller().has_own_pacing_rate());
}

TEST(EndToEnd, NewRenoTransferCompletes) {
  const std::int64_t payload = 300 * kPayloadPerDatagram;
  Harness h(payload, 40 * kDatagramSize, cc::CcAlgorithm::kNewReno);
  h.server.start();
  h.loop.run_until(Time::zero() + 60_s);
  EXPECT_TRUE(h.client.complete());
}

}  // namespace
}  // namespace quicsteps::quic
