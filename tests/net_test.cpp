// Unit tests for the network fabric: rate math, the wire tap, counters,
// flow tables and the flow index.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "check/audit.hpp"
#include "net/counters.hpp"
#include "net/data_rate.hpp"
#include "net/flow_index.hpp"
#include "net/flow_table.hpp"
#include "net/packet.hpp"
#include "net/packet_slab.hpp"
#include "net/wire_tap.hpp"
#include "sim/event_loop.hpp"

namespace quicsteps::net {
namespace {

using namespace quicsteps::sim::literals;
using sim::Duration;
using sim::EventLoop;
using sim::Time;

Packet make_packet(std::uint64_t id, std::int64_t size = 1500) {
  Packet p;
  p.id = id;
  p.size_bytes = size;
  return p;
}

TEST(DataRate, TransmitTimeMatchesHandMath) {
  // 1500 B at 1 Gbit/s = 12 us — the paper's minimum inter-packet gap.
  const auto rate = DataRate::gigabits_per_second(1);
  EXPECT_EQ(rate.transmit_time(1500).us(), 12);
  // 1500 B at 40 Mbit/s = 300 us.
  EXPECT_EQ(DataRate::megabits_per_second(40).transmit_time(1500).us(), 300);
}

TEST(DataRate, EdgeRates) {
  EXPECT_TRUE(DataRate::infinite().transmit_time(1'000'000).is_zero());
  EXPECT_TRUE(DataRate::zero().transmit_time(1).is_infinite());
  EXPECT_EQ(DataRate::zero().transmit_time(0), Duration::zero());
}

TEST(DataRate, BytesInInvertsTransmitTime) {
  const auto rate = DataRate::megabits_per_second(40);
  EXPECT_EQ(rate.bytes_in(300_us), 1500);
  EXPECT_EQ(rate.bytes_in(Duration::zero()), 0);
}

TEST(DataRate, BytesPerConstructsInverseRate) {
  const auto rate = DataRate::bytes_per(1500, 300_us);
  EXPECT_NEAR(rate.mbps(), 40.0, 0.01);
}

TEST(DataRate, Formatting) {
  EXPECT_EQ(DataRate::megabits_per_second(40).to_string(), "40.00Mbit/s");
  EXPECT_EQ(DataRate::gigabits_per_second(1).to_string(), "1.00Gbit/s");
}

TEST(WireTap, StampsWireTimeAndKeepsCopies) {
  EventLoop loop;
  PacketSlab slab;
  CollectorSink sink;
  WireTap tap(loop, slab, &sink);
  loop.schedule_at(
      Time::zero() + 7_ms, sim::EventClass::kGeneral,
      [](void* t, std::uint32_t) {
        static_cast<WireTap*>(t)->deliver(make_packet(1));
      },
      &tap);
  loop.run();
  ASSERT_EQ(tap.capture().size(), 1u);
  EXPECT_EQ(tap.capture()[0].wire_time, Time::zero() + 7_ms);
  ASSERT_EQ(sink.packets().size(), 1u);
  EXPECT_EQ(sink.packets()[0].wire_time, Time::zero() + 7_ms);
  EXPECT_EQ(slab.live(), 0u);
}

TEST(WireTap, LiveCallbackSeesEveryPacket) {
  EventLoop loop;
  PacketSlab slab;
  WireTap tap(loop, slab, nullptr);
  int seen = 0;
  tap.set_on_packet([&](const Packet&) { ++seen; });
  tap.deliver(make_packet(1));
  tap.deliver(make_packet(2));
  EXPECT_EQ(seen, 2);
  EXPECT_EQ(slab.live(), 0u);  // no downstream: the tap retires the ref
}

TEST(Counters, ConservationArithmetic) {
  Counters c;
  c.count_in(100);
  c.count_in(100);
  c.count_out(100);
  c.count_drop(100);
  EXPECT_EQ(c.packets_queued(), 0);
  EXPECT_EQ(c.bytes_in, 200);
}

Packet make_flow_packet(std::uint32_t flow, std::uint64_t id = 1) {
  Packet p = make_packet(id);
  p.flow = flow;
  return p;
}

TEST(FlowTable, RoutesByFlowId) {
  PacketSlab slab;
  FlowTableSink table(slab);
  CollectorSink a;
  CollectorSink b;
  // Register out of order: lookup must not depend on insertion order.
  table.add_route(9, &b);
  table.add_route(7, &a);
  table.finish_routes();
  EXPECT_EQ(table.route_count(), 2u);

  table.deliver(make_flow_packet(7, 1));
  table.deliver(make_flow_packet(7, 2));
  table.deliver(make_flow_packet(9, 3));
  table.deliver(make_flow_packet(7, 4));  // back after a flow switch

  ASSERT_EQ(a.packets().size(), 3u);
  ASSERT_EQ(b.packets().size(), 1u);
  EXPECT_EQ(a.packets()[0].id, 1u);
  EXPECT_EQ(a.packets()[2].id, 4u);
  EXPECT_EQ(b.packets()[0].id, 3u);
}

TEST(FlowTable, UnregisteredFlowTripsAuditAndDrops) {
  if (!check::kAuditEnabled) GTEST_SKIP() << "audit compiled out";
  std::vector<std::string> failures;
  check::set_audit_handler([&failures](const check::AuditFailure& failure) {
    failures.push_back(failure.to_string());
  });

  PacketSlab slab;
  FlowTableSink table(slab);
  CollectorSink a;
  table.add_route(7, &a);
  table.finish_routes();
  table.deliver(make_flow_packet(42, 1));  // no route

  check::set_audit_handler({});
  EXPECT_TRUE(a.packets().empty());
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_NE(failures[0].find("unregistered flow 42"), std::string::npos);
}

TEST(FlowTable, DuplicateRegistrationTripsAudit) {
  if (!check::kAuditEnabled) GTEST_SKIP() << "audit compiled out";
  std::vector<std::string> failures;
  check::set_audit_handler([&failures](const check::AuditFailure& failure) {
    failures.push_back(failure.to_string());
  });

  // Re-registering an id that is already routed is caught by the next
  // finish, not just duplicates within one build.
  PacketSlab slab;
  FlowTableSink table(slab);
  CollectorSink first;
  CollectorSink second;
  table.add_route(7, &first);
  table.finish_routes();
  table.add_route(7, &second);
  table.finish_routes();

  check::set_audit_handler({});
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_NE(failures[0].find("registered twice"), std::string::npos);
}

TEST(FlowTable, BulkRegistrationRoutesLikeIncremental) {
  // The fabric-scale build: append out of order, finish once, then route
  // exactly as a table finished after every add does.
  PacketSlab slab;
  FlowTableSink bulk(slab);
  FlowTableSink incremental(slab);
  std::vector<CollectorSink> bulk_sinks(64);
  std::vector<CollectorSink> incremental_sinks(64);
  for (std::size_t i = 0; i < bulk_sinks.size(); ++i) {
    // Reverse order with gaps: every add moves the table's lowest id.
    const std::size_t slot = bulk_sinks.size() - 1 - i;
    const auto flow = static_cast<std::uint32_t>(10 + 3 * slot);
    bulk.add_route(flow, &bulk_sinks[slot]);
    incremental.add_route(flow, &incremental_sinks[slot]);
    incremental.finish_routes();
  }
  bulk.finish_routes();
  EXPECT_EQ(bulk.route_count(), bulk_sinks.size());

  for (FlowTableSink* table : {&bulk, &incremental}) {
    for (std::size_t i = 0; i < bulk_sinks.size(); ++i) {
      const auto flow = static_cast<std::uint32_t>(10 + 3 * i);
      table->deliver(make_flow_packet(flow, i));
      table->deliver(make_flow_packet(flow, 1000 + i));
    }
  }
  for (std::size_t i = 0; i < bulk_sinks.size(); ++i) {
    ASSERT_EQ(bulk_sinks[i].packets().size(), 2u) << "sink " << i;
    EXPECT_EQ(bulk_sinks[i].packets()[0].id, i);
    EXPECT_EQ(bulk_sinks[i].packets()[1].id, 1000 + i);
    ASSERT_EQ(incremental_sinks[i].packets().size(), 2u) << "sink " << i;
    EXPECT_EQ(incremental_sinks[i].packets()[0].id, i);
  }
}

TEST(FlowTable, BulkDuplicateIsCaughtAtFinish) {
  if (!check::kAuditEnabled) GTEST_SKIP() << "audit compiled out";
  std::vector<std::string> failures;
  check::set_audit_handler([&failures](const check::AuditFailure& failure) {
    failures.push_back(failure.to_string());
  });

  PacketSlab slab;
  FlowTableSink table(slab);
  CollectorSink first;
  CollectorSink second;
  table.add_route(7, &first);
  table.add_route(7, &second);  // reported when the build finishes
  EXPECT_TRUE(failures.empty());
  table.finish_routes();

  check::set_audit_handler({});
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_NE(failures[0].find("registered twice"), std::string::npos);
}

TEST(FlowTable, LookupDuringBulkBuildTripsAudit) {
  if (!check::kAuditEnabled) GTEST_SKIP() << "audit compiled out";
  std::vector<std::string> failures;
  check::set_audit_handler([&failures](const check::AuditFailure& failure) {
    failures.push_back(failure.to_string());
  });

  PacketSlab slab;
  FlowTableSink table(slab);
  CollectorSink a;
  table.add_route(7, &a);
  table.deliver(make_flow_packet(7, 1));  // the build is not finished yet

  check::set_audit_handler({});
  ASSERT_FALSE(failures.empty());
  EXPECT_NE(failures[0].find("before finish_routes"), std::string::npos);
}

TEST(FlowIndex, DenseLookupKeepsFirstSlotOfADuplicate) {
  FlowIndex index;
  EXPECT_EQ(index.find(10), FlowIndex::kNone);  // empty
  EXPECT_EQ(index.add(10), 0u);
  EXPECT_EQ(index.add(11), 1u);
  EXPECT_EQ(index.add(13), 2u);  // a hole at 12
  EXPECT_EQ(index.add(11), 3u);  // duplicate: its own slot, routed to 1
  EXPECT_EQ(index.add(7), 4u);   // below the lowest id so far
  EXPECT_EQ(index.size(), 5u);
  EXPECT_EQ(index.find(7), 4u);
  EXPECT_EQ(index.find(10), 0u);
  EXPECT_EQ(index.find(11), 1u);
  EXPECT_EQ(index.find(13), 2u);
  for (const std::uint32_t absent : {0u, 6u, 8u, 9u, 12u, 14u, 0xffffffffu}) {
    EXPECT_EQ(index.find(absent), FlowIndex::kNone) << absent;
  }
}

TEST(FlowIndex, RejectsIdsFarSparserThanTheFlowCount) {
  // Two flows at ids a million apart would need a million-entry table.
  FlowIndex index;
  index.add(1);
  EXPECT_THROW(index.add(1'000'000), std::length_error);
  EXPECT_EQ(index.size(), 1u);
  EXPECT_EQ(index.find(1), 0u);
  EXPECT_EQ(index.find(1'000'000), FlowIndex::kNone);
}

}  // namespace
}  // namespace quicsteps::net
