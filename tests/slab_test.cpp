// Batched-datapath storage and scheduling tests: PacketSlab put/take
// round-trips, in-place borrows and free-list recycling, the ACK frame
// pool, the recycled-slot aliasing audit, drain-channel execution order
// against slotted events (shared sequence counter), the run() train loop —
// in isolation and end to end over every record kind — a slab-backed TBF
// splitting a burst train across a drop-tail boundary, and the ref
// datapath: a packet (a GSO segment included) keeps the ref it got at
// kernel entry all the way to its endpoint.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "check/audit.hpp"
#include "framework/flows.hpp"
#include "framework/network.hpp"
#include "kernel/qdisc_tbf.hpp"
#include "kernel/udp_socket.hpp"
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
  const Packet pkt = slab.take(ref);
  EXPECT_EQ(pkt.id, 42u);
  EXPECT_EQ(pkt.size_bytes, 1234);
  EXPECT_EQ(slab.live(), 0u);
}

TEST(PacketSlab, AtBorrowsInPlaceAndTheHotLaneCarriesTheFlow) {
  PacketSlab slab;
  Packet pkt = make_packet(42, 1234);
  pkt.flow = 9;
  const PacketSlab::Ref ref = slab.put(pkt);
  EXPECT_EQ(slab.flow(ref), 9u);
  slab.at(ref).wire_time = Time::zero() + Duration::micros(5);
  EXPECT_EQ(slab.live(), 1u);  // a borrow leaves the packet in its slot
  const Packet out = slab.take(ref);
  EXPECT_EQ(out.id, 42u);
  EXPECT_EQ(out.wire_time, Time::zero() + Duration::micros(5));
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
  EXPECT_EQ(slab.take(second).id, 2u);
}

TEST(PacketSlab, AckFramesRecycleWithTheirBlockCapacity) {
  PacketSlab slab;
  // Data packets take slots but no frames: the pool follows the ACKs.
  for (std::uint64_t id = 10; id < 18; ++id) (void)slab.put(make_packet(id));
  const PacketSlab::Ref first = slab.put(make_packet(1, 60));
  net::TransportAck& frame = slab.ack(first);
  frame.blocks.assign(32, net::AckBlock{1, 2});
  frame.max_data = 7;
  const net::AckBlock* storage = frame.blocks.data();
  const std::size_t capacity = frame.blocks.capacity();
  EXPECT_EQ(&slab.ack(first), &frame);  // a second borrow finds the frame
  slab.retire(first);

  // The next ACK draws the same frame: emptied, with its block storage.
  const PacketSlab::Ref second = slab.put(make_packet(2, 60));
  const net::TransportAck& reused = slab.ack(second);
  EXPECT_TRUE(reused.blocks.empty());
  EXPECT_EQ(reused.max_data, 0);
  EXPECT_EQ(reused.blocks.data(), storage);
  EXPECT_EQ(reused.blocks.capacity(), capacity);
  EXPECT_EQ(slab.take(second).id, 2u);  // take() returns the frame too

  const PacketSlab::Ref third = slab.put(make_packet(3, 60));
  EXPECT_EQ(slab.ack(third).blocks.capacity(), capacity);
  EXPECT_EQ(slab.frame_capacity(), 1u);
  EXPECT_EQ(slab.live(), 9u);
}

TEST_F(AuditCaptureTest, StaleRefAfterRecyclingTripsTheAliasingAudit) {
  if (!check::kAuditEnabled) {
    GTEST_SKIP() << "built with -DQUICSTEPS_AUDIT=OFF";
  }
  PacketSlab slab;
  const PacketSlab::Ref stale = slab.put(make_packet(1));
  (void)slab.take(stale);
  (void)slab.put(make_packet(2));  // recycles the slot under a new gen
  (void)slab.take(stale);          // the consumed ref must not alias packet 2
  ASSERT_EQ(failures_.size(), 1u);
  EXPECT_NE(failures_[0].find("recycled-slot aliasing"), std::string::npos);
}

TEST_F(AuditCaptureTest, BorrowThroughAStaleRefTripsTheAliasingAudit) {
  if (!check::kAuditEnabled) {
    GTEST_SKIP() << "built with -DQUICSTEPS_AUDIT=OFF";
  }
  PacketSlab slab;
  const PacketSlab::Ref stale = slab.put(make_packet(1));
  (void)slab.take(stale);
  (void)slab.put(make_packet(2));  // recycles the slot under a new gen
  (void)slab.at(stale);            // a borrow audits exactly like take()
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

TEST(DrainChannel, InterleavesWithSlottedEventsInScheduleOrder) {
  // Posted and slotted records share one sequence counter, so a hop that
  // posts drain records and a timer scheduled at the same instant run in
  // the order they were scheduled.
  EventLoop loop;
  std::vector<int> order;
  const sim::DrainId ch =
      loop.register_drain(EventClass::kDelay, push_payload, &order);
  const Time t = Time::from_ns(1'000'000);
  loop.schedule_at(t, EventClass::kTimer, push_payload, &order, 100);
  loop.post_drain_at(t, ch, 1);
  loop.schedule_at(t, EventClass::kDelay, push_payload, &order, 2);
  loop.schedule_at(t, EventClass::kTimer, push_payload, &order, 101);
  loop.post_drain_at(t + Duration::micros(5), ch, 3);
  const std::size_t executed = loop.run();
  EXPECT_EQ(executed, 5u);
  EXPECT_EQ(order, (std::vector<int>{100, 1, 2, 101, 3}));
  EXPECT_EQ(loop.now(), t + Duration::micros(5));
}

TEST(DrainChannel, TrainLoopBatchesConsecutiveDrainRecords) {
  EventLoop loop;
  std::vector<int> order;
  const sim::DrainId ch =
      loop.register_drain(EventClass::kTransmit, push_payload, &order);
  // A pacer-burst shape: one timer followed by a train of drain records
  // at successive NIC completion times.
  loop.schedule_at(Time::from_ns(1000), EventClass::kTimer, push_payload,
                   &order, 100);
  for (int i = 0; i < 16; ++i) {
    loop.post_drain_at(Time::from_ns(2000 + i * 10), ch,
                       static_cast<std::uint32_t>(i));
  }
  loop.run();
  ASSERT_EQ(order.size(), 17u);
  EXPECT_EQ(order.front(), 100);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[1 + i], i);
  EXPECT_EQ(loop.stats().drain_executed, 17u);
  // After run_one surfaces the timer, the whole train rides the fast loop
  // without re-entering the cursor search.
  EXPECT_EQ(loop.stats().drain_batched, 16u);
}

TEST(DrainChannel, TrainLoopRunsEveryRecordKindEndToEnd) {
  // Every record kind rides the train loop, so on a whole run nearly every
  // executed record is batched: FqCodel's per-packet drain, the TCP
  // timers, ETF's per-packet release and the GRO flush included.
  using framework::QdiscKind;
  using framework::StackKind;
  struct Case {
    const char* name;
    StackKind stack;
    QdiscKind qdisc;
    Duration gro_window;
  };
  const Case cases[] = {
      {"quiche over fq_codel", StackKind::kQuiche, QdiscKind::kFqCodel,
       Duration::zero()},
      {"tcp", StackKind::kTcpTls, QdiscKind::kFqCodel, Duration::zero()},
      {"quiche over etf", StackKind::kQuiche, QdiscKind::kEtf,
       Duration::zero()},
      {"ideal with gro", StackKind::kIdealQuic, QdiscKind::kFqCodel,
       Duration::micros(16)},
  };
  for (const Case& c : cases) {
    framework::ExperimentConfig config;
    config.stack = c.stack;
    config.topology.server_qdisc = c.qdisc;
    config.topology.client_gro_window = c.gro_window;
    config.payload_bytes = 2 * 1024 * 1024;
    framework::MultiFlowConfig flows;
    flows.flows.push_back(framework::FlowSpec{.config = config});
    const framework::MultiFlowResult result = framework::run_flows(flows);
    const auto& counters = result.metrics.counters();

    std::int64_t executed = 0;
    for (std::size_t k = 0; k < sim::kEventClassCount; ++k) {
      executed += counters.at(std::string("loop/executed/") +
                              sim::to_string(static_cast<EventClass>(k)));
    }
    EXPECT_GT(executed, 0) << c.name;
    EXPECT_EQ(counters.at("loop/drain_executed"), executed) << c.name;
    EXPECT_GE(static_cast<double>(counters.at("loop/drain_batched")),
              0.95 * static_cast<double>(executed))
        << c.name;
  }
}

TEST(DrainChannel, CancelledDrainRecordNeverFires) {
  // A cancellable record is a slotted one: the same function, context and
  // payload as a posted record, plus a handle.
  EventLoop loop;
  std::vector<int> order;
  sim::EventHandle keep = loop.schedule_at(
      Time::from_ns(500), EventClass::kWakeup, push_payload, &order, 1);
  sim::EventHandle dead = loop.schedule_at(
      Time::from_ns(500), EventClass::kWakeup, push_payload, &order, 2);
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
  loop.post_drain_at(Time::from_ns(1000), ch, 1);
  loop.post_drain_at(Time::from_ns(2000), ch, 2);
  loop.post_drain_at(Time::from_ns(3000), ch, 3);
  loop.run_until(Time::from_ns(2000));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(loop.pending_count(), 1u);
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(DrainChannel, DelayLineRunsInPostOrderBesidePlainPosts) {
  // A line arms one record at a time, yet interleaves with plain posts on
  // the same channel and with slotted records exactly by (time, post
  // order).
  EventLoop loop;
  std::vector<int> order;
  const sim::DrainId ch =
      loop.register_drain(EventClass::kDelay, push_payload, &order);
  loop.post_line_at(Time::from_ns(1000), ch, 1);
  loop.post_line_at(Time::from_ns(1000), ch, 2);
  loop.post_drain_at(Time::from_ns(1000), ch, 3);
  loop.post_line_at(Time::from_ns(30'000'000), ch, 4);  // past the horizon
  loop.schedule_at(Time::from_ns(500), EventClass::kGeneral, push_payload,
                   &order, 0);
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
  // through the slab and out; the dropped tail retires its refs on the
  // spot — after the run drains, every slot is free again.
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
  // 4 and 5 hit drop-tail, which take()s their refs.
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

// ------------------------------------------------------ the ref datapath

/// An endpoint that records the ref each packet arrives under, reading
/// the packet in place, then retires it as an endpoint does.
class RefRecorder final : public net::PacketSink {
 public:
  void deliver_ref(PacketSlab& slab, PacketSlab::Ref ref) override {
    arrivals_.emplace_back(slab.at(ref).id, ref);
    slab.retire(ref);
  }

  const std::vector<std::pair<std::uint64_t, PacketSlab::Ref>>& arrivals()
      const {
    return arrivals_;
  }

 private:
  std::vector<std::pair<std::uint64_t, PacketSlab::Ref>> arrivals_;
};

struct RefPathCase {
  framework::QdiscKind qdisc;
  bool gro;
};

class RefDatapath : public ::testing::TestWithParam<RefPathCase> {};

TEST_P(RefDatapath, EachPacketReachesItsEndpointUnderItsKernelEntryRef) {
  // The paper's path for one sender, wired by hand: the sender qdisc under
  // test, the NIC, the tap, the TBF, netem, the client receiver (GRO off
  // or on) and the flow table, plus the ACK return path. Packets enter the
  // slab once, as UdpSocket::inject puts them; every hop must pass that
  // same ref on, so the endpoint sees it unchanged.
  EventLoop loop;
  sim::Rng rng(5);
  framework::TopologyConfig config;
  config.server_qdisc = GetParam().qdisc;
  if (GetParam().gro) config.client_gro_window = Duration::millis(1);
  kernel::OsModel os(config.server_os, rng.fork(1));
  framework::BottleneckPath path(loop, config, rng, os);
  framework::SenderPath sender(loop, path.slab(), config, os,
                               path.wire_ingress());
  RefRecorder client;
  RefRecorder server;
  path.register_flow(1, &client, &server);
  path.finish_flow_registration();

  PacketSlab& slab = path.slab();
  std::map<std::uint64_t, PacketSlab::Ref> minted;
  for (std::uint64_t id = 1; id <= 20; ++id) {
    Packet pkt = make_packet(id, 1200);
    // FQ and ETF hold a packet until its txtime; the others ignore it.
    pkt.has_txtime = true;
    pkt.txtime = Time::zero() +
                 Duration::micros(500 + 300 * static_cast<std::int64_t>(id));
    const PacketSlab::Ref ref = slab.put(pkt);
    minted[id] = ref;
    sender.egress()->deliver_ref(slab, ref);
  }
  for (std::uint64_t id = 101; id <= 105; ++id) {
    Packet ack = make_packet(id, 60);
    ack.kind = net::PacketKind::kQuicAck;
    const PacketSlab::Ref ref = slab.put(ack);
    minted[id] = ref;
    path.ack_ingress()->deliver_ref(slab, ref);
  }
  loop.run();

  ASSERT_EQ(client.arrivals().size(), 20u);
  ASSERT_EQ(server.arrivals().size(), 5u);
  for (const RefRecorder* endpoint : {&client, &server}) {
    for (const auto& [id, ref] : endpoint->arrivals()) {
      EXPECT_EQ(ref, minted.at(id)) << "packet " << id << " changed ref";
    }
  }
  EXPECT_EQ(path.tap().capture().size(), 20u);
  EXPECT_EQ(slab.live(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    SenderQdiscs, RefDatapath,
    ::testing::Values(RefPathCase{framework::QdiscKind::kFifo, false},
                      RefPathCase{framework::QdiscKind::kFifo, true},
                      RefPathCase{framework::QdiscKind::kFqCodel, false},
                      RefPathCase{framework::QdiscKind::kFqCodel, true},
                      RefPathCase{framework::QdiscKind::kFq, false},
                      RefPathCase{framework::QdiscKind::kFq, true},
                      RefPathCase{framework::QdiscKind::kEtf, false},
                      RefPathCase{framework::QdiscKind::kEtf, true}),
    [](const ::testing::TestParamInfo<RefPathCase>& info) {
      return std::string(framework::to_string(info.param.qdisc)) +
             (info.param.gro ? "_gro" : "");
    });

/// A hop that records the ref each packet passes under (for a GSO
/// carrier, the ref of each segment linked behind it), then hands it on.
class RefTap final : public net::PacketHop {
 public:
  RefTap(PacketSlab& slab, net::PacketSink* next)
      : PacketHop(slab), next_(next) {}

  void deliver_ref(PacketSlab& slab, PacketSlab::Ref ref) override {
    check_slab(slab);
    const PacketSlab::Ref first = slab.next(ref);
    if (first == PacketSlab::kNoRef) {
      refs[slab.at(ref).id] = ref;
    } else {
      for (PacketSlab::Ref seg = first; seg != PacketSlab::kNoRef;
           seg = slab.next(seg)) {
        refs[slab.at(seg).id] = seg;
      }
    }
    hand_off(next_, ref);
  }

  std::map<std::uint64_t, PacketSlab::Ref> refs;  // by packet id

 private:
  net::PacketSink* next_;
};

TEST(RefDatapathGso, EachSegmentReachesTheTapAndItsEndpointUnderItsSocketRef) {
  // The GSO case of RefDatapath: a socket sends four 5-segment GSO
  // buffers through FQ. The socket mints one ref per segment, linked
  // behind its carrier; the NIC retires the carrier and transmits each
  // segment under its own ref, which must reach the tap and the endpoint
  // unchanged.
  EventLoop loop;
  sim::Rng rng(5);
  framework::TopologyConfig config;
  config.server_qdisc = framework::QdiscKind::kFq;
  kernel::OsModel os(config.server_os, rng.fork(1));
  framework::BottleneckPath path(loop, config, rng, os);
  PacketSlab& slab = path.slab();
  RefTap at_wire(slab, path.wire_ingress());
  framework::SenderPath sender(loop, slab, config, os, &at_wire);
  RefTap at_entry(slab, sender.egress());
  kernel::UdpSocket socket(loop, slab, os, &at_entry);
  RefRecorder client;
  RefRecorder server;
  path.register_flow(1, &client, &server);
  path.finish_flow_registration();

  std::vector<Packet> batch;
  for (std::uint64_t id = 1; id <= 20; ++id) {
    Packet pkt = make_packet(id, 1200);
    pkt.has_txtime = true;
    pkt.txtime = Time::zero() +
                 Duration::micros(500 + 300 * static_cast<std::int64_t>(id));
    batch.push_back(pkt);
    if (batch.size() == 5) socket.sendmsg_gso(batch, DataRate::zero());
  }
  loop.run();

  ASSERT_EQ(at_entry.refs.size(), 20u);
  EXPECT_EQ(at_wire.refs, at_entry.refs);
  ASSERT_EQ(client.arrivals().size(), 20u);
  for (const auto& [id, ref] : client.arrivals()) {
    EXPECT_EQ(ref, at_entry.refs.at(id)) << "segment " << id << " changed ref";
  }
  EXPECT_EQ(path.tap().capture().size(), 20u);
  EXPECT_EQ(slab.live(), 0u);
}

}  // namespace
}  // namespace quicsteps
