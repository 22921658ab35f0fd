// Unit tests for the qdisc suite: FIFO transparency, FQ txtime scheduling,
// ETF late-drops and delta handling, TBF shaping, netem delay, and the
// CoDel control law.
#include <gtest/gtest.h>

#include <numeric>

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

Packet timed_packet(std::uint64_t id, Time txtime, std::int64_t size = 1500) {
  Packet p = make_packet(id, size);
  p.has_txtime = true;
  p.txtime = txtime;
  return p;
}

/// Records the loop time at which each packet reaches it (robust against
/// synchronous forwarding during deliver()).
class TimestampSink final : public net::PacketSink {
 public:
  explicit TimestampSink(EventLoop& loop) : loop_(loop) {}
  void deliver(Packet pkt) override {
    times_.push_back(loop_.now());
    packets_.push_back(std::move(pkt));
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
  FifoQdisc fifo(loop, {}, &sink);
  fifo.deliver(timed_packet(1, Time::zero() + 100_ms));
  EXPECT_EQ(sink.packets().size(), 1u);  // txtime ignored entirely
}

TEST_F(QdiscTest, FqHoldsUntilTxtime) {
  FqQdisc fq(loop, {}, os, &sink);
  fq.deliver(timed_packet(1, Time::zero() + 5_ms));
  EXPECT_TRUE(sink.packets().empty());
  loop.run();
  ASSERT_EQ(sink.packets().size(), 1u);
  EXPECT_EQ(loop.now(), Time::zero() + 5_ms);
}

TEST_F(QdiscTest, FqSendsLatePacketsImmediatelyInsteadOfDropping) {
  FqQdisc fq(loop, {}, os, &sink);
  loop.run_until(Time::zero() + 10_ms);
  fq.deliver(timed_packet(1, Time::zero() + 5_ms));  // already past
  EXPECT_EQ(sink.packets().size(), 1u);
  EXPECT_EQ(fq.counters().packets_dropped, 0);
}

TEST_F(QdiscTest, FqReleasesInTimestampOrder) {
  FqQdisc fq(loop, {}, os, &sink);
  fq.deliver(timed_packet(2, Time::zero() + 2_ms));
  fq.deliver(timed_packet(1, Time::zero() + 1_ms));
  loop.run();
  ASSERT_EQ(sink.packets().size(), 2u);
  EXPECT_EQ(sink.packets()[0].id, 1u);
  EXPECT_EQ(sink.packets()[1].id, 2u);
}

TEST_F(QdiscTest, FqPassesUntimedPacketsThrough) {
  FqQdisc fq(loop, {}, os, &sink);
  fq.deliver(make_packet(1));
  EXPECT_EQ(sink.packets().size(), 1u);
}

TEST_F(QdiscTest, FqDropsBeyondHorizon) {
  FqQdisc fq(loop, {.horizon = 1_s, .horizon_drop = true}, os, &sink);
  fq.deliver(timed_packet(1, Time::zero() + 2_s));
  EXPECT_EQ(fq.counters().packets_dropped, 1);
}

TEST_F(QdiscTest, FqRearmsForEarlierArrival) {
  // A later packet is enqueued first; an earlier txtime arrives afterwards
  // and must still release first, at its own time.
  FqQdisc fq(loop, {}, os, &sink);
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

Packet flow_packet(std::uint64_t id, std::uint32_t flow, Time txtime,
                   std::int64_t size = 1500) {
  Packet p = timed_packet(id, txtime, size);
  p.flow = flow;
  return p;
}

TEST_F(QdiscTest, FqCountsQueuedPacketsAcrossFlows) {
  FqQdisc fq(loop, {}, os, &sink);
  fq.deliver(flow_packet(1, 1, Time::zero() + 5_ms));
  fq.deliver(flow_packet(2, 1, Time::zero() + 6_ms));
  fq.deliver(flow_packet(3, 2, Time::zero() + 5_ms));
  EXPECT_EQ(fq.queued_packets(), 3u);
  EXPECT_EQ(fq.queued_packets(1), 2u);
  EXPECT_EQ(fq.queued_packets(2), 1u);
  EXPECT_EQ(fq.queued_packets(99), 0u);
  EXPECT_EQ(fq.flow_count(), 2u);
  EXPECT_EQ(fq.backlog_packets(), 3);
  loop.run();
  EXPECT_EQ(fq.queued_packets(), 0u);
  EXPECT_EQ(fq.backlog_packets(), 0);
  EXPECT_EQ(sink.packets().size(), 3u);
}

TEST_F(QdiscTest, FqReleasesAcrossFlowsInTimestampOrder) {
  // Distinct release times across flows leave strictly by timestamp —
  // DRR only arbitrates packets due in the same softirq.
  FqQdisc fq(loop, {}, os, &sink);
  fq.deliver(flow_packet(1, 1, Time::zero() + 3_ms));
  fq.deliver(flow_packet(2, 2, Time::zero() + 1_ms));
  fq.deliver(flow_packet(3, 3, Time::zero() + 2_ms));
  loop.run();
  ASSERT_EQ(sink.packets().size(), 3u);
  EXPECT_EQ(sink.packets()[0].id, 2u);
  EXPECT_EQ(sink.packets()[1].id, 3u);
  EXPECT_EQ(sink.packets()[2].id, 1u);
}

TEST_F(QdiscTest, FqServesSimultaneouslyDueFlowsRoundRobin) {
  // Two flows, four full-size packets each, all due at the same instant:
  // the softirq serves them DRR-style — quantum (2 frames) per flow per
  // round — instead of draining one flow before the other.
  FqQdisc fq(loop, {}, os, &sink);
  const Time due = Time::zero() + 1_ms;
  for (std::uint64_t i = 1; i <= 4; ++i) fq.deliver(flow_packet(i, 1, due));
  for (std::uint64_t i = 11; i <= 14; ++i) fq.deliver(flow_packet(i, 2, due));
  loop.run();
  ASSERT_EQ(sink.packets().size(), 8u);
  const std::vector<std::uint64_t> expected = {1, 2, 11, 12, 3, 4, 13, 14};
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(sink.packets()[i].id, expected[i]) << "position " << i;
  }
}

TEST_F(QdiscTest, FqFlowRatePacesUntimedPackets) {
  // sch_fq maxrate: 12 Mbit/s spreads 1500-byte packets 1 ms apart even
  // without SO_TXTIME stamps. The first packet passes straight through.
  TimestampSink timestamps(loop);
  FqQdisc fq(loop, {}, os, &timestamps);
  fq.set_flow_rate(1, DataRate::megabits_per_second(12));
  for (std::uint64_t i = 1; i <= 3; ++i) {
    Packet p = make_packet(i);
    p.flow = 1;
    fq.deliver(p);
  }
  loop.run();
  ASSERT_EQ(timestamps.times().size(), 3u);
  EXPECT_EQ(timestamps.times()[0], Time::zero());
  EXPECT_EQ(timestamps.times()[1], Time::zero() + 1_ms);
  EXPECT_EQ(timestamps.times()[2], Time::zero() + 2_ms);
}

TEST_F(QdiscTest, FqFlowRateDoesNotDelayOtherFlows) {
  TimestampSink timestamps(loop);
  FqQdisc fq(loop, {}, os, &timestamps);
  fq.set_flow_rate(1, DataRate::kilobits_per_second(8));  // crawl
  Packet slow = make_packet(1);
  slow.flow = 1;
  Packet fast = make_packet(2);
  fast.flow = 2;
  fq.deliver(slow);  // passes (first packet), pushes flow 1's rate_next out
  fq.deliver(fast);  // unpaced flow: immediate, not behind flow 1
  EXPECT_EQ(timestamps.packets().size(), 2u);
  EXPECT_EQ(timestamps.times()[1], Time::zero());
}

TEST_F(QdiscTest, EtfDropsPacketsWithPastTxtime) {
  EtfQdisc etf(loop, {}, os, &sink);
  loop.run_until(Time::zero() + 10_ms);
  etf.deliver(timed_packet(1, Time::zero() + 5_ms));
  EXPECT_EQ(etf.counters().packets_dropped, 1);
  EXPECT_EQ(etf.late_drops(), 1);
  EXPECT_TRUE(sink.packets().empty());
}

TEST_F(QdiscTest, EtfRejectsUntimedPackets) {
  EtfQdisc etf(loop, {}, os, &sink);
  etf.deliver(make_packet(1));
  EXPECT_EQ(etf.counters().packets_dropped, 1);
}

TEST_F(QdiscTest, EtfReleasesNearTxtime) {
  EtfQdisc::Config cfg;
  cfg.delta = 200_us;
  cfg.driver_path_mean = 200_us;  // exactly consumes the window
  cfg.driver_path_stddev = Duration::zero();
  EtfQdisc etf(loop, cfg, os, &sink);
  etf.deliver(timed_packet(1, Time::zero() + 5_ms));
  loop.run();
  ASSERT_EQ(sink.packets().size(), 1u);
  EXPECT_EQ(loop.now(), Time::zero() + 5_ms);
}

TEST_F(QdiscTest, EtfOrdersByTxtime) {
  EtfQdisc::Config cfg;
  cfg.driver_path_stddev = Duration::zero();
  EtfQdisc etf(loop, cfg, os, &sink);
  etf.deliver(timed_packet(2, Time::zero() + 4_ms));
  etf.deliver(timed_packet(1, Time::zero() + 2_ms));
  loop.run();
  ASSERT_EQ(sink.packets().size(), 2u);
  EXPECT_EQ(sink.packets()[0].id, 1u);
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
                     [&, i] { netem.deliver(make_packet(i)); });
  }
  loop.run();
  ASSERT_EQ(sink.packets().size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(sink.packets()[i].id, (unsigned)i);
}

TEST_F(QdiscTest, FqCodelTransparentWhenUncongested) {
  FqCodelQdisc codel(loop, {}, &sink);
  for (int i = 0; i < 100; ++i) {
    loop.schedule_at(Time::zero() + Duration::micros(i * 300),
                     [&, i] { codel.deliver(make_packet(i)); });
  }
  loop.run();
  EXPECT_EQ(sink.packets().size(), 100u);
  EXPECT_EQ(codel.codel_drops(), 0);
}

TEST_F(QdiscTest, FqCodelDropsUnderSustainedQueueing) {
  // Drain at 1 Mbit/s while offering 100 packets at once: sojourn stays far
  // above the 5 ms target, so the control law must engage.
  FqCodelQdisc codel(loop, {.drain_rate = DataRate::megabits_per_second(1)},
                     &sink);
  for (int i = 0; i < 100; ++i) codel.deliver(make_packet(i));
  loop.run();
  EXPECT_GT(codel.codel_drops(), 0);
  EXPECT_EQ(codel.counters().packets_out + codel.counters().packets_dropped,
            100);
}

}  // namespace
}  // namespace quicsteps::kernel
