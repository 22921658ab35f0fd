// Batched-datapath storage and scheduling tests: PacketSlab put/take
// round-trips and free-list recycling, the recycled-slot aliasing audit,
// drain-channel execution order against closure events (shared sequence
// counter), the run() train loop, and a slab-backed TBF splitting a burst
// train across a drop-tail boundary.
#include <gtest/gtest.h>

#include <vector>

#include "check/audit.hpp"
#include "kernel/qdisc_tbf.hpp"
#include "net/packet.hpp"
#include "net/packet_slab.hpp"
#include "sim/event_loop.hpp"

namespace quicsteps {
namespace {

using namespace quicsteps::sim::literals;
using net::DataRate;
using net::Packet;
using net::PacketSlab;
using sim::Duration;
using sim::EventClass;
using sim::EventLoop;
using sim::Time;

Packet make_packet(std::uint64_t id, std::int64_t size = 1500) {
  Packet p;
  p.id = id;
  p.flow = 1;
  p.size_bytes = size;
  return p;
}

/// Redirects audit failures into a list for the lifetime of the test
/// (same idiom as check_test.cpp — the default handler aborts).
class AuditCaptureTest : public ::testing::Test {
 protected:
  AuditCaptureTest() {
    check::set_audit_handler([this](const check::AuditFailure& failure) {
      failures_.push_back(failure.to_string());
    });
  }
  ~AuditCaptureTest() override { check::set_audit_handler({}); }

  std::vector<std::string> failures_;
};

// ------------------------------------------------------------ PacketSlab

TEST(PacketSlab, PutTakeRoundTripsThePacket) {
  PacketSlab slab;
  const PacketSlab::Ref ref = slab.put(make_packet(42, 1234));
  EXPECT_EQ(slab.live(), 1u);
  EXPECT_EQ(slab.size_bytes(ref), 1234u);
  EXPECT_EQ(slab.peek(ref).id, 42u);
  const Packet pkt = slab.take(ref);
  EXPECT_EQ(pkt.id, 42u);
  EXPECT_EQ(pkt.size_bytes, 1234);
  EXPECT_EQ(slab.live(), 0u);
}

TEST(PacketSlab, FreeListBoundsCapacityToTheHighWaterMark) {
  PacketSlab slab;
  // 1000 packets through the slab, never more than 4 in flight: the slab
  // must recycle slots instead of growing per packet.
  std::vector<PacketSlab::Ref> in_flight;
  for (std::uint64_t id = 0; id < 1000; ++id) {
    in_flight.push_back(slab.put(make_packet(id)));
    if (in_flight.size() == 4) {
      for (const PacketSlab::Ref ref : in_flight) {
        (void)slab.take(ref);
      }
      in_flight.clear();
    }
  }
  EXPECT_LE(slab.capacity(), 4u);
  EXPECT_EQ(slab.live(), in_flight.size());
}

TEST(PacketSlab, RefsStayDistinctAcrossRecycling) {
  PacketSlab slab;
  const PacketSlab::Ref first = slab.put(make_packet(1));
  (void)slab.take(first);
  const PacketSlab::Ref second = slab.put(make_packet(2));
  // Same slot, different generation: the recycled ref is a new ticket.
  EXPECT_EQ(first & PacketSlab::kSlotMask, second & PacketSlab::kSlotMask);
  EXPECT_NE(first, second);
  EXPECT_EQ(slab.peek(second).id, 2u);
  (void)slab.take(second);
}

TEST_F(AuditCaptureTest, StaleRefAfterRecyclingTripsTheAliasingAudit) {
  if (!check::kAuditEnabled) {
    GTEST_SKIP() << "built with -DQUICSTEPS_AUDIT=OFF";
  }
  PacketSlab slab;
  const PacketSlab::Ref stale = slab.put(make_packet(1));
  (void)slab.take(stale);
  (void)slab.put(make_packet(2));  // recycles the slot under a new gen
  (void)slab.peek(stale);          // the consumed ref must not alias packet 2
  ASSERT_EQ(failures_.size(), 1u);
  EXPECT_NE(failures_[0].find("recycled-slot aliasing"), std::string::npos);
}

TEST_F(AuditCaptureTest, DoubleTakeTripsTheAliasingAudit) {
  if (!check::kAuditEnabled) {
    GTEST_SKIP() << "built with -DQUICSTEPS_AUDIT=OFF";
  }
  PacketSlab slab;
  const PacketSlab::Ref ref = slab.put(make_packet(7));
  (void)slab.take(ref);
  (void)slab.take(ref);
  ASSERT_EQ(failures_.size(), 1u);
  EXPECT_NE(failures_[0].find("recycled-slot aliasing"), std::string::npos);
}

// -------------------------------------------------------- drain channels

void push_payload(void* ctx, std::uint32_t payload) {
  static_cast<std::vector<int>*>(ctx)->push_back(static_cast<int>(payload));
}

TEST(DrainChannel, InterleavesWithClosureEventsInScheduleOrder) {
  // Drain records and closures share one sequence counter, so a hop that
  // posts drain records and a timer that schedules a closure at the same
  // instant run in the order they were scheduled.
  EventLoop loop;
  std::vector<int> order;
  const sim::DrainId ch =
      loop.register_drain(EventClass::kDelay, push_payload, &order);
  const Time t = Time::from_ns(1'000'000);
  loop.schedule_at(t, [&order] { order.push_back(100); });
  loop.schedule_drain_at(t, ch, 1);
  loop.schedule_drain_at(t, ch, 2);
  loop.schedule_at(t, [&order] { order.push_back(101); });
  loop.schedule_drain_at(t + Duration::micros(5), ch, 3);
  const std::size_t executed = loop.run();
  EXPECT_EQ(executed, 5u);
  EXPECT_EQ(order, (std::vector<int>{100, 1, 2, 101, 3}));
  EXPECT_EQ(loop.now(), t + Duration::micros(5));
}

TEST(DrainChannel, TrainLoopBatchesConsecutiveDrainRecords) {
  if (!sim::kLoopProfilingEnabled) {
    GTEST_SKIP() << "built with -DQUICSTEPS_TRACE=OFF";
  }
  EventLoop loop;
  std::vector<int> order;
  const sim::DrainId ch =
      loop.register_drain(EventClass::kTransmit, push_payload, &order);
  // A pacer-burst shape: one closure (the timer) followed by a train of
  // drain records at successive NIC completion times.
  loop.schedule_at(Time::from_ns(1000), [&order] { order.push_back(-1); });
  for (int i = 0; i < 16; ++i) {
    loop.schedule_drain_at(Time::from_ns(2000 + i * 10), ch,
                           static_cast<std::uint32_t>(i));
  }
  loop.run();
  ASSERT_EQ(order.size(), 17u);
  EXPECT_EQ(order.front(), -1);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[1 + i], i);
  EXPECT_EQ(loop.stats().drain_executed, 16u);
  // After the closure surfaces the first drain record, the rest of the
  // train rides the fast loop without re-entering the cursor search.
  EXPECT_GE(loop.stats().drain_batched, 15u);
}

TEST(DrainChannel, CancelledDrainRecordNeverFires) {
  EventLoop loop;
  std::vector<int> order;
  const sim::DrainId ch =
      loop.register_drain(EventClass::kWakeup, push_payload, &order);
  sim::EventHandle keep = loop.schedule_drain_at(Time::from_ns(500), ch, 1);
  sim::EventHandle dead = loop.schedule_drain_at(Time::from_ns(500), ch, 2);
  dead.cancel();
  EXPECT_TRUE(keep.pending());
  EXPECT_FALSE(dead.pending());
  loop.run();
  EXPECT_EQ(order, std::vector<int>{1});
  EXPECT_TRUE(loop.empty());
}

TEST(DrainChannel, RunUntilHonorsTheDeadlineForDrainRecords) {
  EventLoop loop;
  std::vector<int> order;
  const sim::DrainId ch =
      loop.register_drain(EventClass::kDelay, push_payload, &order);
  loop.schedule_drain_at(Time::from_ns(1000), ch, 1);
  loop.schedule_drain_at(Time::from_ns(2000), ch, 2);
  loop.schedule_drain_at(Time::from_ns(3000), ch, 3);
  loop.run_until(Time::from_ns(2000));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(loop.pending_count(), 1u);
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(DrainChannel, DelayLineRunsInPostOrderBesidePlainPosts) {
  // A line arms one record at a time, yet interleaves with plain posts on
  // the same channel and with closures exactly by (time, post order).
  EventLoop loop;
  std::vector<int> order;
  const sim::DrainId ch =
      loop.register_drain(EventClass::kDelay, push_payload, &order);
  loop.post_line_at(Time::from_ns(1000), ch, 1);
  loop.post_line_at(Time::from_ns(1000), ch, 2);
  loop.post_drain_at(Time::from_ns(1000), ch, 3);
  loop.post_line_at(Time::from_ns(30'000'000), ch, 4);  // past the horizon
  loop.schedule_at(Time::from_ns(500), [&order] { order.push_back(0); });
  loop.post_drain_at(Time::from_ns(2000), ch, 5);
  EXPECT_EQ(loop.pending_count(), 6u);
  EXPECT_EQ(loop.next_event_time(), Time::from_ns(500));
  loop.run_until(Time::from_ns(1000));
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(loop.pending_count(), 2u);
  EXPECT_EQ(loop.next_event_time(), Time::from_ns(2000));
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 5, 4}));
  EXPECT_EQ(loop.now(), Time::from_ns(30'000'000));
}

TEST_F(AuditCaptureTest, DelayLinePostedBackInTimeTripsTheAudit) {
  if (!check::kAuditEnabled) {
    GTEST_SKIP() << "built with -DQUICSTEPS_AUDIT=OFF";
  }
  EventLoop loop;
  std::vector<int> order;
  const sim::DrainId ch =
      loop.register_drain(EventClass::kDelay, push_payload, &order);
  loop.post_line_at(Time::from_ns(2000), ch, 1);
  loop.post_line_at(Time::from_ns(1000), ch, 2);  // not FIFO
  ASSERT_EQ(failures_.size(), 1u);
  EXPECT_NE(failures_[0].find("out of time order"), std::string::npos);
}

// ------------------------------------------- slab-backed TBF drop trains

TEST(SlabTbf, BurstTrainSplitsAcrossTheDropTailBoundary) {
  // A 5-packet burst against a 2-packet FIFO: the accepted prefix flows
  // through the slab and out; the dropped tail must never occupy a slot —
  // after the run drains, every slot is free again.
  EventLoop loop;
  net::CollectorSink sink;
  PacketSlab slab;
  kernel::TbfQdisc::Config config;
  config.rate = DataRate::megabits_per_second(12);  // 1500 B per ms
  config.burst_bytes = 1500;
  config.limit_bytes = 3000;
  kernel::TbfQdisc tbf(loop, slab, config, &sink);

  for (std::uint64_t id = 1; id <= 5; ++id) {
    tbf.deliver(make_packet(id));
  }
  // Packet 1 left on the initial token burst; 2 and 3 fill the FIFO;
  // 4 and 5 hit drop-tail before ever touching the slab.
  EXPECT_EQ(tbf.counters().packets_dropped, 2);
  EXPECT_EQ(tbf.backlog_packets(), 2u);
  EXPECT_EQ(slab.live(), 2u);

  loop.run();
  ASSERT_EQ(sink.packets().size(), 3u);
  EXPECT_EQ(sink.packets()[0].id, 1u);
  EXPECT_EQ(sink.packets()[1].id, 2u);
  EXPECT_EQ(sink.packets()[2].id, 3u);
  EXPECT_EQ(tbf.backlog_bytes(), 0);
  EXPECT_EQ(slab.live(), 0u);  // no stale refs left behind by the drops
}

}  // namespace
}  // namespace quicsteps
