// Heap allocations on the two paths whose cost scales with the work:
//
// - Per ACK round trip. A quic::Client with flow-control credit renders
//   every ACK and a quic::Connection consumes it, with enough receiver
//   gaps that each ACK carries max_ack_blocks ranges (the shape of a long
//   lossy run). The two allocations a round may make are the shared
//   TransportAck and its exact-size block vector.
// - Per fleet flow at construction. A 1,000-flow network shaped like
//   perfbench's fabric_10k (ideal QUIC over FqCodel) is built, and the
//   allocations and bytes are divided by the flow count.
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
#include <vector>

#include "framework/flows.hpp"
#include "net/packet.hpp"
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

/// Hands each ACK the client sends straight to the connection.
class AckToConnection final : public net::PacketSink {
 public:
  AckToConnection(sim::EventLoop& loop, Connection& conn)
      : loop_(loop), conn_(conn) {}

  void deliver(net::Packet pkt) override {
    ++acks;
    min_blocks = std::min(min_blocks, pkt.ack->blocks.size());
    granted = granted && pkt.ack->max_data > 0;
    conn_.on_ack_packet(pkt, loop_.now());
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
        client(loop,
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
  Connection conn;
  AckToConnection sink;
  Client client;
};

TEST(AckAllocations, AtMostTwoPerAckRound) {
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
  EXPECT_EQ(path.sink.min_blocks, AckManager::Config{}.max_ack_blocks);
  EXPECT_TRUE(path.sink.granted);
  const double per_round = static_cast<double>(allocations) / kRounds;
  std::printf("heap allocations per ACK round: %.3f\n", per_round);
  EXPECT_LE(per_round, 2.0);
}

}  // namespace
}  // namespace quicsteps::quic

namespace quicsteps::framework {
namespace {

TEST(FlowFootprint, FabricFlowBuildsInNineAllocationsAnd2560Bytes) {
  // What one flow costs before its first packet: its OS model and host
  // records in Network's arrays, its qdisc and NIC, and its endpoint.
  // Undrawn generators, idle queues and an unrequested qlog stream must
  // cost nothing.
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

}  // namespace
}  // namespace quicsteps::framework
