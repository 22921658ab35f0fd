// Unit tests for the qdisc suite: FIFO transparency, FQ txtime scheduling,
// ETF late-drops and delta handling, TBF shaping, netem delay, and the
// CoDel control law.
#include <gtest/gtest.h>

#include <numeric>

#include "kernel/gso.hpp"
#include "kernel/os_model.hpp"
#include "kernel/qdisc_etf.hpp"
#include "kernel/qdisc_fifo.hpp"
#include "kernel/qdisc_fq.hpp"
#include "kernel/qdisc_fq_codel.hpp"
#include "kernel/qdisc_netem.hpp"
#include "kernel/qdisc_tbf.hpp"
#include "net/packet.hpp"
#include "sim/event_loop.hpp"

namespace quicsteps::kernel {
namespace {

using namespace quicsteps::sim::literals;
using net::CollectorSink;
using net::DataRate;
using net::Packet;
using sim::Duration;
using sim::EventLoop;
using sim::Time;

Packet make_packet(std::uint64_t id, std::int64_t size = 1500) {
  Packet p;
  p.id = id;
  p.size_bytes = size;
  return p;
}

/// Scheduled arrival: `sink` is a Q, `id` the packet to build for it.
template <class Q>
void deliver_id(void* sink, std::uint32_t id) {
  static_cast<Q*>(sink)->deliver(make_packet(id));
}

Packet timed_packet(std::uint64_t id, Time txtime, std::int64_t size = 1500) {
  Packet p = make_packet(id, size);
  p.has_txtime = true;
  p.txtime = txtime;
  return p;
}

/// A 4-segment GSO carrier in `slab`, timed by its first segment.
net::PacketSlab::Ref timed_gso_carrier(net::PacketSlab& slab, Time txtime) {
  std::vector<Packet> segs;
  for (std::uint64_t id = 1; id <= 4; ++id) {
    segs.push_back(timed_packet(id, txtime));
  }
  return make_gso_buffer(slab, segs, 1, DataRate::zero());
}

/// Records the loop time at which each packet reaches it (robust against
/// synchronous forwarding during deliver()).
class TimestampSink final : public net::PacketSink {
 public:
  explicit TimestampSink(EventLoop& loop) : loop_(loop) {}
  void deliver_ref(net::PacketSlab& slab, net::PacketSlab::Ref ref) override {
    times_.push_back(loop_.now());
    packets_.push_back(slab.take(ref));
  }
  const std::vector<Time>& times() const { return times_; }
  const std::vector<Packet>& packets() const { return packets_; }

 private:
  EventLoop& loop_;
  std::vector<Time> times_;
  std::vector<Packet> packets_;
};

OsTimingConfig quiet_os() {
  // Deterministic OS: no slack or jitter, so scheduling tests are exact.
  OsTimingConfig cfg;
  cfg.hrtimer_slack_mean = Duration::zero();
  cfg.hrtimer_slack_stddev = Duration::zero();
  cfg.softirq_delay_chance = 0.0;
  cfg.syscall_jitter_mean = Duration::zero();
  cfg.wakeup_latency_mean = Duration::zero();
  cfg.wakeup_latency_stddev = Duration::zero();
  return cfg;
}

class QdiscTest : public ::testing::Test {
 protected:
  EventLoop loop;
  net::PacketSlab slab;
  OsModel os{quiet_os(), sim::Rng(1)};
  CollectorSink sink;
};

TEST_F(QdiscTest, FifoForwardsImmediately) {
  FifoQdisc fifo(loop, slab, &sink);
  fifo.deliver(timed_packet(1, Time::zero() + 100_ms));
  EXPECT_EQ(sink.packets().size(), 1u);  // txtime ignored entirely
}

TEST_F(QdiscTest, FqHoldsUntilTxtime) {
  FqQdisc fq(loop, slab, {}, os, &sink);
  fq.deliver(timed_packet(1, Time::zero() + 5_ms));
  EXPECT_TRUE(sink.packets().empty());
  loop.run();
  ASSERT_EQ(sink.packets().size(), 1u);
  EXPECT_EQ(loop.now(), Time::zero() + 5_ms);
}

TEST_F(QdiscTest, FqSendsLatePacketsImmediatelyInsteadOfDropping) {
  FqQdisc fq(loop, slab, {}, os, &sink);
  loop.run_until(Time::zero() + 10_ms);
  fq.deliver(timed_packet(1, Time::zero() + 5_ms));  // already past
  EXPECT_EQ(sink.packets().size(), 1u);
  EXPECT_EQ(fq.counters().packets_dropped, 0);
}

TEST_F(QdiscTest, FqReleasesInTimestampOrder) {
  FqQdisc fq(loop, slab, {}, os, &sink);
  fq.deliver(timed_packet(2, Time::zero() + 2_ms));
  fq.deliver(timed_packet(1, Time::zero() + 1_ms));
  loop.run();
  ASSERT_EQ(sink.packets().size(), 2u);
  EXPECT_EQ(sink.packets()[0].id, 1u);
  EXPECT_EQ(sink.packets()[1].id, 2u);
}

TEST_F(QdiscTest, FqPassesUntimedPacketsThrough) {
  FqQdisc fq(loop, slab, {}, os, &sink);
  fq.deliver(make_packet(1));
  EXPECT_EQ(sink.packets().size(), 1u);
}

TEST_F(QdiscTest, FqDropsBeyondHorizon) {
  FqQdisc fq(loop, slab, {.horizon = 1_s, .horizon_drop = true}, os,
             &sink);
  fq.deliver(timed_packet(1, Time::zero() + 2_s));
  EXPECT_EQ(fq.counters().packets_dropped, 1);
  EXPECT_EQ(slab.live(), 0u);  // a horizon drop retires its ref
}

TEST_F(QdiscTest, FqHorizonDropOfAGsoCarrierRetiresItsSegments) {
  FqQdisc fq(loop, slab, {.horizon = 1_s, .horizon_drop = true}, os,
             &sink);
  fq.deliver_ref(slab, timed_gso_carrier(slab, Time::zero() + 2_s));
  EXPECT_EQ(fq.counters().packets_dropped, 1);  // the buffer is one skb
  EXPECT_EQ(slab.live(), 0u);
}

TEST_F(QdiscTest, FqDropsPastItsLimit) {
  FqQdisc fq(loop, slab, {.limit_packets = 2}, os, &sink);
  for (int i = 0; i < 3; ++i) {
    fq.deliver(timed_packet(static_cast<std::uint64_t>(i),
                            Time::zero() + Duration::millis(1 + i)));
  }
  EXPECT_EQ(fq.counters().packets_dropped, 1);
  EXPECT_EQ(slab.live(), 2u);  // the two held packets
  loop.run();
  EXPECT_EQ(sink.packets().size(), 2u);
  EXPECT_EQ(slab.live(), 0u);
}

TEST_F(QdiscTest, FqRearmsForEarlierArrival) {
  // A later packet is enqueued first; an earlier txtime arrives afterwards
  // and must still release first, at its own time.
  FqQdisc fq(loop, slab, {}, os, &sink);
  fq.deliver(timed_packet(2, Time::zero() + 10_ms));
  fq.deliver(timed_packet(1, Time::zero() + 1_ms));
  std::vector<Time> at;
  while (loop.run_one()) {
    while (at.size() < sink.packets().size()) at.push_back(loop.now());
  }
  ASSERT_EQ(at.size(), 2u);
  EXPECT_EQ(at[0], Time::zero() + 1_ms);
  EXPECT_EQ(at[1], Time::zero() + 10_ms);
}

TEST_F(QdiscTest, FqReportsItsBacklog) {
  // Held packets count until their release; two sharing a timestamp leave
  // in arrival order.
  FqQdisc fq(loop, slab, {}, os, &sink);
  fq.deliver(timed_packet(1, Time::zero() + 5_ms));
  fq.deliver(timed_packet(2, Time::zero() + 6_ms));
  fq.deliver(timed_packet(3, Time::zero() + 5_ms));
  EXPECT_EQ(fq.queued_packets(), 3u);
  EXPECT_EQ(fq.backlog_packets(), 3);
  EXPECT_EQ(slab.live(), 3u);  // held packets park in the slab
  loop.run();
  EXPECT_EQ(fq.queued_packets(), 0u);
  EXPECT_EQ(fq.backlog_packets(), 0);
  EXPECT_EQ(slab.live(), 0u);
  ASSERT_EQ(sink.packets().size(), 3u);
  EXPECT_EQ(sink.packets()[0].id, 1u);
  EXPECT_EQ(sink.packets()[1].id, 3u);
  EXPECT_EQ(sink.packets()[2].id, 2u);
}

TEST_F(QdiscTest, EtfDropsPacketsWithPastTxtime) {
  EtfQdisc etf(loop, slab, {}, os, &sink);
  loop.run_until(Time::zero() + 10_ms);
  etf.deliver(timed_packet(1, Time::zero() + 5_ms));
  EXPECT_EQ(etf.counters().packets_dropped, 1);
  EXPECT_EQ(etf.late_drops(), 1);
  EXPECT_TRUE(sink.packets().empty());
  EXPECT_EQ(slab.live(), 0u);  // a late drop retires its ref
}

TEST_F(QdiscTest, EtfLateDropOfAGsoCarrierRetiresItsSegments) {
  EtfQdisc etf(loop, slab, {}, os, &sink);
  loop.run_until(Time::zero() + 10_ms);
  etf.deliver_ref(slab, timed_gso_carrier(slab, Time::zero() + 5_ms));
  EXPECT_EQ(etf.late_drops(), 1);
  EXPECT_EQ(slab.live(), 0u);
}

TEST_F(QdiscTest, EtfRejectsUntimedPackets) {
  EtfQdisc etf(loop, slab, {}, os, &sink);
  etf.deliver(make_packet(1));
  EXPECT_EQ(etf.counters().packets_dropped, 1);
  EXPECT_EQ(slab.live(), 0u);
}

TEST_F(QdiscTest, EtfDropsPastItsLimit) {
  EtfQdisc::Config cfg;
  cfg.limit_packets = 1;
  EtfQdisc etf(loop, slab, cfg, os, &sink);
  etf.deliver(timed_packet(1, Time::zero() + 2_ms));
  etf.deliver(timed_packet(2, Time::zero() + 3_ms));  // over the limit
  EXPECT_EQ(etf.counters().packets_dropped, 1);
  EXPECT_EQ(slab.live(), 1u);  // only the held packet
  loop.run();
  ASSERT_EQ(sink.packets().size(), 1u);
  EXPECT_EQ(sink.packets()[0].id, 1u);
  EXPECT_EQ(slab.live(), 0u);
}

TEST_F(QdiscTest, EtfReleasesNearTxtime) {
  EtfQdisc::Config cfg;
  cfg.delta = 200_us;
  cfg.driver_path_mean = 200_us;  // exactly consumes the window
  cfg.driver_path_stddev = Duration::zero();
  EtfQdisc etf(loop, slab, cfg, os, &sink);
  etf.deliver(timed_packet(1, Time::zero() + 5_ms));
  loop.run();
  ASSERT_EQ(sink.packets().size(), 1u);
  EXPECT_EQ(loop.now(), Time::zero() + 5_ms);
}

TEST_F(QdiscTest, EtfOrdersByTxtime) {
  EtfQdisc::Config cfg;
  cfg.driver_path_stddev = Duration::zero();
  EtfQdisc etf(loop, slab, cfg, os, &sink);
  etf.deliver(timed_packet(2, Time::zero() + 4_ms));
  etf.deliver(timed_packet(1, Time::zero() + 2_ms));
  loop.run();
  ASSERT_EQ(sink.packets().size(), 2u);
  EXPECT_EQ(sink.packets()[0].id, 1u);
  EXPECT_EQ(slab.live(), 0u);  // released packets leave the slab
}

TEST_F(QdiscTest, EtfReleasesEqualTxtimesInArrivalOrder) {
  // Held refs form a (txtime, arrival) heap: packets stamped with the same
  // txtime leave in the order they arrived, as equal keys do in the real
  // qdisc's rb-tree.
  EtfQdisc::Config cfg;
  cfg.driver_path_stddev = Duration::zero();
  EtfQdisc etf(loop, slab, cfg, os, &sink);
  for (const std::uint64_t id : {3u, 1u, 4u, 2u}) {
    etf.deliver(timed_packet(id, Time::zero() + 2_ms));
  }
  etf.deliver(timed_packet(5, Time::zero() + 1_ms));  // earlier: goes first
  EXPECT_EQ(etf.queued_packets(), 5u);
  loop.run();
  ASSERT_EQ(sink.packets().size(), 5u);
  const std::vector<std::uint64_t> expected = {5, 3, 1, 4, 2};
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(sink.packets()[i].id, expected[i]) << "position " << i;
  }
  EXPECT_EQ(slab.live(), 0u);
}

TEST_F(QdiscTest, TbfShapesToConfiguredRate) {
  // 10 packets of 1500 B at 40 Mbit/s with a 1-packet bucket: packet 0
  // leaves on the full bucket immediately, then one packet per 300 us.
  TimestampSink stamped(loop);
  TbfQdisc tbf(loop, slab,
               {.rate = DataRate::megabits_per_second(40),
                .burst_bytes = 1500,
                .limit_bytes = 1'000'000},
               &stamped);
  for (int i = 0; i < 10; ++i) tbf.deliver(make_packet(i));
  loop.run();
  ASSERT_EQ(stamped.times().size(), 10u);
  const Duration span = stamped.times().back() - stamped.times().front();
  EXPECT_GE(span.us(), 9 * 300 - 20);
  EXPECT_LE(span.us(), 9 * 300 + 50);
}

TEST_F(QdiscTest, TbfDropsWhenLimitExceeded) {
  TbfQdisc tbf(loop, slab,
               {.rate = DataRate::megabits_per_second(1),
                .burst_bytes = 1500,
                .limit_bytes = 4500},
               &sink);
  for (int i = 0; i < 10; ++i) tbf.deliver(make_packet(i));
  loop.run();
  EXPECT_EQ(slab.live(), 0u);
  EXPECT_GT(tbf.counters().packets_dropped, 0);
  EXPECT_EQ(tbf.counters().packets_in, 10);
  EXPECT_EQ(tbf.counters().packets_queued(), 0);
}

TEST_F(QdiscTest, TbfBurstAllowsBackToBack) {
  // A deep bucket releases an idle-accumulated burst at once.
  TbfQdisc tbf(loop, slab,
               {.rate = DataRate::megabits_per_second(40),
                .burst_bytes = 15000,
                .limit_bytes = 1'000'000},
               &sink);
  loop.run_until(Time::zero() + 100_ms);  // let the bucket fill
  for (int i = 0; i < 10; ++i) tbf.deliver(make_packet(i));
  EXPECT_EQ(sink.packets().size(), 10u);  // all released synchronously
}

TEST_F(QdiscTest, NetemDelaysByConfiguredAmount) {
  NetemQdisc netem(loop, slab, {.delay = 20_ms}, sim::Rng(2), &sink);
  netem.deliver(make_packet(1));
  loop.run();
  EXPECT_EQ(loop.now(), Time::zero() + 20_ms);
  EXPECT_EQ(sink.packets().size(), 1u);
}

TEST_F(QdiscTest, NetemDropsAboveLimit) {
  NetemQdisc netem(loop, slab, {.delay = 20_ms, .limit_packets = 2},
                   sim::Rng(2), &sink);
  for (int i = 0; i < 5; ++i) netem.deliver(make_packet(i));
  loop.run();
  EXPECT_EQ(slab.live(), 0u);
  EXPECT_EQ(sink.packets().size(), 2u);
  EXPECT_EQ(netem.counters().packets_dropped, 3);
}

TEST_F(QdiscTest, NetemPreservesOrderWithConstantDelay) {
  NetemQdisc netem(loop, slab, {.delay = 20_ms}, sim::Rng(2), &sink);
  for (int i = 0; i < 20; ++i) {
    loop.schedule_at(Time::zero() + Duration::micros(i * 100),
                     sim::EventClass::kGeneral, &deliver_id<NetemQdisc>,
                     &netem, static_cast<std::uint32_t>(i));
  }
  loop.run();
  ASSERT_EQ(sink.packets().size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(sink.packets()[i].id, (unsigned)i);
}

TEST_F(QdiscTest, FqCodelTransparentWhenUncongested) {
  FqCodelQdisc codel(loop, slab, {}, &sink);
  for (int i = 0; i < 100; ++i) {
    loop.schedule_at(Time::zero() + Duration::micros(i * 300),
                     sim::EventClass::kGeneral, &deliver_id<FqCodelQdisc>,
                     &codel, static_cast<std::uint32_t>(i));
  }
  loop.run();
  EXPECT_EQ(sink.packets().size(), 100u);
  EXPECT_EQ(codel.codel_drops(), 0);
}

TEST_F(QdiscTest, FqCodelDropsUnderSustainedQueueing) {
  // Drain at 1 Mbit/s while offering 100 packets at once: sojourn stays far
  // above the 5 ms target, so the control law must engage.
  FqCodelQdisc codel(loop, slab,
                     {.drain_rate = DataRate::megabits_per_second(1)}, &sink);
  for (int i = 0; i < 100; ++i) codel.deliver(make_packet(i));
  loop.run();
  EXPECT_GT(codel.codel_drops(), 0);
  EXPECT_EQ(codel.counters().packets_out + codel.counters().packets_dropped,
            100);
  EXPECT_EQ(slab.live(), 0u);  // CoDel drops take their packet back
}

TEST_F(QdiscTest, FqCodelDropsPastItsLimit) {
  FqCodelQdisc codel(loop, slab, {.limit_packets = 3}, &sink);
  for (int i = 0; i < 5; ++i) codel.deliver(make_packet(i));
  EXPECT_EQ(codel.counters().packets_dropped, 2);
  EXPECT_EQ(codel.backlog_packets(), 3);
  loop.run();
  EXPECT_EQ(sink.packets().size(), 3u);
  EXPECT_EQ(slab.live(), 0u);
}

TEST_F(QdiscTest, FqCodelKeepsFifoOrderAcrossRingGrowth) {
  // The first 12 packets sit in the 16-entry ring; once 6 have left, the
  // next 20 wrap past its end, so it grows with its head mid-array.
  FqCodelQdisc codel(loop, slab,
                     {.drain_rate = DataRate::megabits_per_second(12)}, &sink);
  for (int i = 0; i < 12; ++i) codel.deliver(make_packet(i));
  while (sink.packets().size() < 6) ASSERT_TRUE(loop.run_one());
  for (int i = 12; i < 32; ++i) codel.deliver(make_packet(i));
  EXPECT_EQ(codel.backlog_packets(), 26);
  loop.run();
  ASSERT_EQ(sink.packets().size(), 32u);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(sink.packets()[i].id, (unsigned)i);
  EXPECT_EQ(codel.codel_drops(), 0);
  EXPECT_EQ(slab.live(), 0u);
}

}  // namespace
}  // namespace quicsteps::kernel
