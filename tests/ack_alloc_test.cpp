// Heap allocations on the paths whose cost scales with the work:
//
// - Per ACK round trip. A quic::Client with flow-control credit renders
//   every ACK into the packet slab and a quic::Connection consumes the
//   frame in place, with enough receiver gaps that each ACK carries the 32
//   ranges an ACK may hold (the shape of a long lossy run). Once the slab
//   and its frame pool hold the ACKs in flight, a round allocates nothing.
// - Per packet through the bottleneck. A saturated kernel::TbfQdisc moves
//   a long stream through its FIFO into a sink; once its queue has grown
//   to the backlog's high-water mark it allocates nothing.
// - Per fleet flow at construction. A 1,000-flow network shaped like
//   perfbench's fabric_10k (ideal QUIC over FqCodel) is built, and the
//   allocations and bytes are divided by the flow count.
// - Per wire data packet in steady state, on every traffic shape perfbench
//   runs. Each shape runs through run_flows at two transfer sizes, and the
//   difference in allocations is divided by the difference in wire data
//   packets, which cancels set-up and the logarithmic growth of buffers.
//
// This binary replaces the global operator new/delete with counting
// versions, so it stands alone instead of joining test_quic.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "framework/flows.hpp"
#include "kernel/qdisc_tbf.hpp"
#include "net/data_rate.hpp"
#include "net/packet.hpp"
#include "net/packet_slab.hpp"
#include "quic/client.hpp"
#include "quic/connection.hpp"
#include "sim/event_loop.hpp"
#include "sim/random.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_bytes{0};

}  // namespace

// Kept out of line: inlined into a new/delete pair, GCC's
// -Wmismatched-new-delete would see free() release operator new's memory.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace quicsteps::quic {
namespace {

using namespace quicsteps::sim::literals;

/// Hands the frame of each ACK the client sends straight to the
/// connection, in place, and retires the ACK.
class AckToConnection final : public net::PacketSink {
 public:
  AckToConnection(sim::EventLoop& loop, Connection& conn)
      : loop_(loop), conn_(conn) {}

  void deliver_ref(net::PacketSlab& slab, net::PacketSlab::Ref ref) override {
    const net::TransportAck& ack = slab.ack(ref);
    ++acks;
    min_blocks = std::min(min_blocks, ack.blocks.size());
    granted = granted && ack.max_data > 0;
    conn_.on_ack(ack, loop_.now());
    slab.retire(ref);
  }

  std::int64_t acks = 0;
  std::size_t min_blocks = ~std::size_t{0};
  bool granted = true;

 private:
  sim::EventLoop& loop_;
  Connection& conn_;
};

struct AckLoop {
  AckLoop()
      : conn([] {
          Connection::Config config;
          config.total_payload_bytes = std::int64_t{1} << 40;
          config.flow_control_credit = std::int64_t{1} << 30;
          return config;
        }()),
        sink(loop, conn),
        client(loop, slab,
               [] {
                 Client::Config config;
                 config.flow_control_credit = std::int64_t{1} << 30;
                 return config;
               }(),
               &sink) {}

  /// Sends two packets, lets them cross the path, and delivers them to
  /// the client unless `drop_second`. The client ACKs every second
  /// delivered packet, and the connection consumes the ACK at once.
  void round(bool drop_second = false) {
    const net::Packet first = conn.build_packet(loop.now(), loop.now());
    const net::Packet second = conn.build_packet(loop.now(), loop.now());
    loop.run_until(loop.now() + 50_us);
    client.on_datagram(first);
    if (!drop_second) client.on_datagram(second);
  }

  sim::EventLoop loop;
  net::PacketSlab slab;
  Connection conn;
  AckToConnection sink;
  Client client;
};

TEST(AckAllocations, NonePerAckRound) {
  AckLoop path;
  // 40 lost packets leave 40 permanent gaps in the client's packet
  // numbers, so from here on every ACK carries 32 ranges.
  for (int gap = 0; gap < 40; ++gap) path.round(/*drop_second=*/true);
  // Warm-up: the lost chunks are retransmitted and every container,
  // event-wheel bucket included, reaches its high-water mark.
  for (int i = 0; i < 1000; ++i) path.round();

  constexpr int kRounds = 10000;
  const std::int64_t acks_before = path.sink.acks;
  path.sink.min_blocks = ~std::size_t{0};
  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < kRounds; ++i) path.round();
  const std::uint64_t allocations = g_allocations.load() - before;

  EXPECT_EQ(path.sink.acks - acks_before, kRounds);  // one ACK per round
  EXPECT_EQ(path.sink.min_blocks, std::size_t{32});  // the ACK block cap
  EXPECT_TRUE(path.sink.granted);
  EXPECT_EQ(path.slab.live(), 0u);
  EXPECT_EQ(path.slab.frame_capacity(), 1u);  // one ACK in flight at a time
  const double per_round = static_cast<double>(allocations) / kRounds;
  std::printf("heap allocations per ACK round: %.3f\n", per_round);
  EXPECT_EQ(allocations, 0u);
}

}  // namespace
}  // namespace quicsteps::quic

namespace quicsteps::kernel {
namespace {

using namespace quicsteps::sim::literals;

/// Counts the packets the TBF releases and lets each one go.
class CountingSink final : public net::PacketSink {
 public:
  void deliver_ref(net::PacketSlab& slab, net::PacketSlab::Ref ref) override {
    ++packets;
    slab.retire(ref);
  }
  std::int64_t packets = 0;
};

TEST(TbfQueue, SaturatedBottleneckAllocatesNothingPerPacket) {
  // A source offers a 1500-byte packet every 200 us to a 40 Mbit/s TBF,
  // which releases one every 300 us: the FIFO fills to its 200 kB limit
  // and every packet that is not dropped moves through it. After warm-up
  // the queue, the slab and the event wheel hold their high-water marks,
  // so forwarding a packet must not touch the heap.
  sim::EventLoop loop;
  net::PacketSlab slab;
  CountingSink sink;
  TbfQdisc tbf(loop, slab,
               {.rate = net::DataRate::megabits_per_second(40),
                .burst_bytes = 2 * 1514,
                .limit_bytes = 200 * 1000},
               &sink);
  net::Packet offered;
  offered.size_bytes = 1500;
  sim::Time now = sim::Time::zero();
  const auto offer = [&](int packets) {
    for (int i = 0; i < packets; ++i) {
      now += 200_us;
      loop.run_until(now);
      tbf.deliver(offered);
    }
  };
  offer(10'000);  // warm-up: 2 s of offered load

  const std::int64_t released_before = sink.packets;
  const std::uint64_t before = g_allocations.load();
  offer(100'000);
  const std::uint64_t allocations = g_allocations.load() - before;

  // 20 s at 40 Mbit/s releases about 66,667 packets.
  EXPECT_GT(sink.packets - released_before, 66'000);
  EXPECT_GT(tbf.counters().packets_dropped, 0);
  EXPECT_EQ(allocations, 0u);
}

}  // namespace
}  // namespace quicsteps::kernel

namespace quicsteps::framework {
namespace {

TEST(FlowFootprint, FabricFlowBuildsInNineAllocationsAnd2560Bytes) {
  // What one flow costs before its first packet: its OS model and host
  // records in Network's arrays, its qdisc and NIC, and its endpoint.
  // Undrawn generators, idle queues and an untraced connection must cost
  // nothing.
  constexpr std::size_t kFlows = 1000;
  ExperimentConfig flow;
  flow.stack = StackKind::kIdealQuic;
  flow.payload_bytes = 64 * 1024;
  flow.topology.server_qdisc = QdiscKind::kFqCodel;
  flow.topology.bottleneck_rate =
      net::DataRate::bits_per_second(2'000'000 * kFlows);
  flow.topology.bottleneck_buffer_bytes =
      flow.topology.bottleneck_rate.bytes_in(sim::Duration::millis(40));
  MultiFlowConfig config;
  config.flows.assign(kFlows, FlowSpec{.config = flow});

  sim::EventLoop loop;
  sim::Rng rng(config.seed);
  std::vector<RunResult> live(kFlows);
  const std::uint64_t allocations_before = g_allocations.load();
  const std::uint64_t bytes_before = g_bytes.load();
  {
    const Network net(loop, config, rng, live);
    ASSERT_EQ(net.flow_count(), kFlows);
  }
  const double allocations =
      static_cast<double>(g_allocations.load() - allocations_before) /
      kFlows;
  const double bytes =
      static_cast<double>(g_bytes.load() - bytes_before) / kFlows;
  std::printf("per flow at construction: %.2f allocations, %.0f bytes\n",
              allocations, bytes);
  EXPECT_LE(allocations, 9.0);
  EXPECT_LE(bytes, 2560.0);
}

constexpr std::int64_t kMiB = 1024 * 1024;

// One traffic shape perfbench runs, at two payloads per flow; the larger
// is twice the smaller.
struct SteadyShape {
  std::string label;
  MultiFlowConfig small;
  MultiFlowConfig large;
  double bound;  // allocations per wire data packet
};

MultiFlowConfig single_flow(ExperimentConfig config, std::int64_t payload) {
  config.payload_bytes = payload;
  MultiFlowConfig run;
  run.flows.push_back(FlowSpec{.config = config});
  return run;
}

// perfbench's paper_grid: the 11 configurations the paper's artifacts are
// computed from, one flow each.
void add_paper_grid(std::vector<SteadyShape>& shapes) {
  using cc::CcAlgorithm;
  using kernel::GsoMode;
  struct Grid {
    const char* label;
    StackKind stack;
    CcAlgorithm cca;
    QdiscKind qdisc;
    GsoMode gso;
  };
  constexpr Grid kGrid[] = {
      {"quiche", StackKind::kQuiche, CcAlgorithm::kCubic,
       QdiscKind::kFqCodel, GsoMode::kOff},
      {"picoquic", StackKind::kPicoquic, CcAlgorithm::kCubic,
       QdiscKind::kFqCodel, GsoMode::kOff},
      {"ngtcp2", StackKind::kNgtcp2, CcAlgorithm::kCubic,
       QdiscKind::kFqCodel, GsoMode::kOff},
      {"tcp", StackKind::kTcpTls, CcAlgorithm::kCubic, QdiscKind::kFqCodel,
       GsoMode::kOff},
      {"picoquic+bbr", StackKind::kPicoquic, CcAlgorithm::kBbr,
       QdiscKind::kFqCodel, GsoMode::kOff},
      {"quiche+fq", StackKind::kQuiche, CcAlgorithm::kCubic, QdiscKind::kFq,
       GsoMode::kOff},
      {"quiche-sf+fq", StackKind::kQuicheSf, CcAlgorithm::kCubic,
       QdiscKind::kFq, GsoMode::kOff},
      {"quiche-sf+fq+gso", StackKind::kQuicheSf, CcAlgorithm::kCubic,
       QdiscKind::kFq, GsoMode::kOn},
      {"quiche-sf+fq+paced-gso", StackKind::kQuicheSf, CcAlgorithm::kCubic,
       QdiscKind::kFq, GsoMode::kPaced},
      {"quiche-sf+etf", StackKind::kQuicheSf, CcAlgorithm::kCubic,
       QdiscKind::kEtf, GsoMode::kOff},
      {"quiche-sf+etf-lt", StackKind::kQuicheSf, CcAlgorithm::kCubic,
       QdiscKind::kEtfOffload, GsoMode::kOff},
  };
  for (const Grid& grid : kGrid) {
    ExperimentConfig config;
    config.label = grid.label;
    config.stack = grid.stack;
    config.cca = grid.cca;
    config.topology.server_qdisc = grid.qdisc;
    config.gso = grid.gso;
    // TCP keeps one std::map node per segment in flight
    // (TcpConnection::outstanding_).
    const double bound = grid.stack == StackKind::kTcpTls ? 1.10 : 0.15;
    shapes.push_back({grid.label, single_flow(config, 8 * kMiB),
                      single_flow(config, 16 * kMiB), bound});
  }
}

// perfbench's hotpath_10g: one ideal-pacing flow at 10 Gbit/s.
void add_hotpath_10g(std::vector<SteadyShape>& shapes) {
  const auto rate = net::DataRate::gigabits_per_second(10);
  ExperimentConfig config;
  config.label = "ideal-10g";
  config.stack = StackKind::kIdealQuic;
  config.topology.bottleneck_rate = rate;
  config.topology.server_nic_rate = net::DataRate::gigabits_per_second(40);
  config.topology.path_delay_one_way = sim::Duration::millis(1);
  config.topology.bottleneck_buffer_bytes =
      rate.bytes_in(sim::Duration::millis(2));
  config.topology.tbf_burst_bytes = 16 * 1514;
  config.topology.client_gro_window = sim::Duration::micros(16);
  shapes.push_back({"hotpath_10g", single_flow(config, 32 * kMiB),
                    single_flow(config, 64 * kMiB), 0.05});
}

// perfbench's fabric_10k at 1,000 flows: a 2 Mbit/s fair share per flow,
// 2:1 oversubscribed, with lite metrics, 1-in-100 tracing and telemetry.
MultiFlowConfig fleet(std::int64_t payload) {
  constexpr std::int64_t kFlows = 1000;
  ExperimentConfig flow;
  flow.label = "ideal-fleet";
  flow.stack = StackKind::kIdealQuic;
  flow.payload_bytes = payload;
  flow.topology.bottleneck_rate =
      net::DataRate::bits_per_second(2'000'000 * kFlows);
  flow.topology.bottleneck_buffer_bytes =
      flow.topology.bottleneck_rate.bytes_in(sim::Duration::millis(40));
  flow.trace = true;
  MultiFlowConfig run;
  run.lite_metrics = true;
  run.trace_sample = 100;
  run.telemetry_window = sim::Duration::millis(10);
  run.flows.assign(kFlows, FlowSpec{.config = flow});
  return run;
}

struct RunCost {
  double allocations = 0.0;
  double wire_data_packets = 0.0;
  std::size_t completed = 0;  // flows
};

RunCost counted_run(const MultiFlowConfig& config) {
  RunCost cost;
  const std::uint64_t before = g_allocations.load();
  const MultiFlowResult result = run_flows(config);
  cost.allocations = static_cast<double>(g_allocations.load() - before);
  for (const RunResult& flow : result.flows) {
    cost.wire_data_packets += static_cast<double>(flow.wire_data_packets);
    if (flow.completed) ++cost.completed;
  }
  return cost;
}

TEST(SteadyState, AllocationsPerWireDataPacket) {
  std::vector<SteadyShape> shapes;
  add_paper_grid(shapes);
  add_hotpath_10g(shapes);
  shapes.push_back({"fabric_1k", fleet(64 * 1024), fleet(128 * 1024), 0.05});

  for (const SteadyShape& shape : shapes) {
    const RunCost small = counted_run(shape.small);
    const RunCost large = counted_run(shape.large);
    EXPECT_EQ(small.completed, shape.small.flows.size()) << shape.label;
    EXPECT_EQ(large.completed, shape.large.flows.size()) << shape.label;
    ASSERT_GT(large.wire_data_packets, small.wire_data_packets)
        << shape.label;
    const double per_packet =
        (large.allocations - small.allocations) /
        (large.wire_data_packets - small.wire_data_packets);
    std::printf("%-24s %.3f allocations per wire data packet\n",
                shape.label.c_str(), per_packet);
    EXPECT_LE(per_packet, shape.bound) << shape.label;
  }
}

}  // namespace
}  // namespace quicsteps::framework
