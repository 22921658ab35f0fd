// Tests for the extension features: connection flow control, sendmmsg
// batching, competing flows, and CSV artifact export.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "framework/artifacts.hpp"
#include "framework/flows.hpp"
#include "framework/parallel.hpp"
#include "framework/runner.hpp"
#include "quic/connection.hpp"
#include "stacks/event_loop_model.hpp"

namespace quicsteps {
namespace {

using namespace quicsteps::sim::literals;

// ------------------------------------------------------------ flow control

quic::Connection::Config fc_config(std::int64_t credit) {
  quic::Connection::Config cfg;
  cfg.total_payload_bytes = 100 * quic::kPayloadPerDatagram;
  cfg.flow_control_credit = credit;
  return cfg;
}

TEST(FlowControl, BlocksNewDataAtCredit) {
  quic::Connection conn(fc_config(3 * quic::kPayloadPerDatagram));
  conn.build_packet(sim::Time::zero(), sim::Time::zero());
  conn.build_packet(sim::Time::zero(), sim::Time::zero());
  conn.build_packet(sim::Time::zero(), sim::Time::zero());
  EXPECT_FALSE(conn.has_data_to_send());
  EXPECT_TRUE(conn.flow_control_blocked());
  EXPECT_FALSE(conn.congestion_blocked());  // cwnd has room; fc is the cap
}

TEST(FlowControl, MaxDataGrantUnblocks) {
  quic::Connection conn(fc_config(3 * quic::kPayloadPerDatagram));
  for (int i = 0; i < 3; ++i) {
    conn.build_packet(sim::Time::zero(), sim::Time::zero());
  }
  ASSERT_TRUE(conn.flow_control_blocked());
  net::Packet ack;
  ack.kind = net::PacketKind::kQuicAck;
  auto payload = std::make_shared<net::TransportAck>();
  payload->blocks = {net::AckBlock{1, 3}};
  payload->max_data = 6 * quic::kPayloadPerDatagram;
  ack.ack = payload;
  conn.on_ack_packet(ack, sim::Time::zero() + 40_ms);
  EXPECT_FALSE(conn.flow_control_blocked());
  EXPECT_TRUE(conn.has_data_to_send());
}

TEST(FlowControl, RetransmissionsExempt) {
  quic::Connection conn(fc_config(10 * quic::kPayloadPerDatagram));
  for (int i = 0; i < 10; ++i) {
    conn.build_packet(sim::Time::zero(), sim::Time::zero());
  }
  ASSERT_TRUE(conn.flow_control_blocked());
  // ACK 4..10 declares 1..3 lost: the retransmissions must flow despite
  // the exhausted credit.
  net::Packet ack;
  ack.kind = net::PacketKind::kQuicAck;
  auto payload = std::make_shared<net::TransportAck>();
  payload->blocks = {net::AckBlock{4, 10}};
  ack.ack = payload;
  conn.on_ack_packet(ack, sim::Time::zero() + 40_ms);
  EXPECT_GT(conn.stats().packets_declared_lost, 0);
  EXPECT_TRUE(conn.has_data_to_send());
  EXPECT_FALSE(conn.flow_control_blocked());
}

TEST(FlowControl, ZeroCreditMeansUnlimited) {
  quic::Connection conn(fc_config(0));
  for (int i = 0; i < 10; ++i) {
    conn.build_packet(sim::Time::zero(), sim::Time::zero());
  }
  EXPECT_FALSE(conn.flow_control_blocked());
}

TEST(FlowControl, ThroughputIsCreditOverRtt) {
  // The ngtcp2 Table 1 mechanism, end to end: a static 81 kB credit on a
  // 40 ms path pins goodput at ~16 Mbit/s regardless of the link rate.
  framework::ExperimentConfig config;
  config.stack = framework::StackKind::kNgtcp2;
  config.payload_bytes = 4ll * 1024 * 1024;
  auto run = framework::Runner::run_once(config, 3);
  EXPECT_TRUE(run.completed);
  EXPECT_NEAR(run.goodput.goodput.mbps(), 81000.0 * 8.0 / 0.040 / 1e6, 1.0);
}

// ------------------------------------------------------------- sendmmsg

TEST(Sendmmsg, BatchesSyscallsWithoutGsoBuffers) {
  framework::ExperimentConfig plain;
  plain.stack = framework::StackKind::kQuicheSf;
  plain.topology.server_qdisc = framework::QdiscKind::kFq;
  plain.payload_bytes = 2ll * 1024 * 1024;
  auto base = framework::Runner::run_once(plain, 5);

  auto batched = plain;
  batched.use_sendmmsg = true;
  auto mmsg = framework::Runner::run_once(batched, 5);

  EXPECT_TRUE(mmsg.completed);
  // Far fewer syscalls...
  EXPECT_LT(mmsg.send_syscalls, base.send_syscalls / 2);
  // ...while FQ pacing quality is preserved (unlike stock GSO).
  EXPECT_GT(mmsg.trains.fraction_in_trains_up_to(5), 0.8);
}

// -------------------------------------------------------------- AppSource

TEST(AppSource, BulkReleasesEverythingImmediately) {
  sim::EventLoop loop;
  quic::Connection conn(fc_config(0));
  int pokes = 0;
  quic::AppSource source(loop, conn, {}, [&] { ++pokes; });
  source.start();
  EXPECT_EQ(conn.available_bytes(), conn.config().total_payload_bytes);
  EXPECT_EQ(pokes, 1);
}

TEST(AppSource, ChunkedReleasesOnSchedule) {
  sim::EventLoop loop;
  quic::Connection::Config cfg;
  cfg.total_payload_bytes = 10 * quic::kPayloadPerDatagram;
  cfg.app_limited_source = true;
  quic::Connection conn(cfg);
  EXPECT_EQ(conn.available_bytes(), 0);
  EXPECT_TRUE(conn.source_blocked());
  EXPECT_FALSE(conn.has_data_to_send());

  quic::SourceConfig src;
  src.kind = quic::SourceKind::kChunked;
  src.chunk_bytes = 3 * quic::kPayloadPerDatagram;
  src.period = 100_ms;
  int pokes = 0;
  quic::AppSource source(loop, conn, src, [&] { ++pokes; });
  source.start();
  // First chunk at t=0.
  EXPECT_EQ(conn.available_bytes(), 3 * quic::kPayloadPerDatagram);
  EXPECT_TRUE(conn.has_data_to_send());
  loop.run_until(sim::Time::zero() + 250_ms);
  EXPECT_EQ(conn.available_bytes(), 9 * quic::kPayloadPerDatagram);
  loop.run_until(sim::Time::zero() + 1_s);
  // Capped at the total payload; releases stop.
  EXPECT_EQ(conn.available_bytes(), 10 * quic::kPayloadPerDatagram);
  EXPECT_EQ(pokes, 4);
}

TEST(AppSource, CbrAccruesAtRate) {
  sim::EventLoop loop;
  quic::Connection::Config cfg;
  cfg.total_payload_bytes = 10ll * 1024 * 1024;
  cfg.app_limited_source = true;
  quic::Connection conn(cfg);
  quic::SourceConfig src;
  src.kind = quic::SourceKind::kCbr;
  src.rate = net::DataRate::megabits_per_second(8);
  src.frame_interval = 10_ms;
  quic::AppSource source(loop, conn, src, {});
  source.start();
  loop.run_until(sim::Time::zero() + 1_s);
  // 8 Mbit/s for ~1 s = ~1 MB (101 frames of 10 ms released by t=1s).
  EXPECT_NEAR(static_cast<double>(conn.available_bytes()), 1e6, 2e4);
}

TEST(AppSource, CbrTransferCompletesEndToEnd) {
  framework::ExperimentConfig config;
  config.stack = framework::StackKind::kPicoquic;
  config.cca = cc::CcAlgorithm::kBbr;
  config.workload.kind = quic::SourceKind::kCbr;
  config.workload.rate = net::DataRate::megabits_per_second(4);
  config.workload.frame_interval = 33_ms;
  config.payload_bytes = 2ll * 1024 * 1024;
  auto run = framework::Runner::run_once(config, 41);
  EXPECT_TRUE(run.completed);
  // Goodput tracks the media rate, not the link rate.
  EXPECT_NEAR(run.goodput.goodput.mbps(), 4.0, 0.5);
  // BBR's rate-based pacing keeps the frames spread.
  EXPECT_GT(run.trains.fraction_in_trains_up_to(5), 0.9);
}

// ------------------------------------------------------------------ duel

/// Two flows sharing the bottleneck: flow B joins `b_start_delay` after A.
framework::MultiFlowConfig duel(const framework::ExperimentConfig& a,
                                const framework::ExperimentConfig& b,
                                std::uint64_t seed,
                                sim::Duration b_start_delay =
                                    sim::Duration::zero()) {
  framework::MultiFlowConfig config;
  config.seed = seed;
  config.flows.push_back(framework::FlowSpec{.config = a});
  config.flows.push_back(
      framework::FlowSpec{.config = b, .start_delay = b_start_delay});
  return config;
}

TEST(Duel, SameStackSplitsFairly) {
  framework::ExperimentConfig a;
  a.stack = framework::StackKind::kQuicheSf;
  a.payload_bytes = 3ll * 1024 * 1024;
  const auto result = framework::run_flows(duel(a, a, 11));
  ASSERT_EQ(result.flows.size(), 2u);
  EXPECT_TRUE(result.flows[0].completed);
  EXPECT_TRUE(result.flows[1].completed);
  EXPECT_GT(result.fairness, 0.95);
  // Both flows fit through the shared bottleneck: aggregate is bounded.
  EXPECT_LE(result.flows[0].goodput.goodput.mbps() +
                result.flows[1].goodput.goodput.mbps(),
            40.0);
}

TEST(Duel, StaggeredStartStillCompletes) {
  framework::ExperimentConfig a;
  a.stack = framework::StackKind::kQuicheSf;
  a.payload_bytes = 2ll * 1024 * 1024;
  framework::ExperimentConfig b = a;
  b.stack = framework::StackKind::kPicoquic;
  const auto result = framework::run_flows(duel(a, b, 13, 500_ms));
  ASSERT_EQ(result.flows.size(), 2u);
  EXPECT_TRUE(result.flows[0].completed);
  EXPECT_TRUE(result.flows[1].completed);
}

TEST(Duel, TcpParticipates) {
  framework::ExperimentConfig a;
  a.stack = framework::StackKind::kPicoquic;
  a.payload_bytes = 2ll * 1024 * 1024;
  framework::ExperimentConfig b = a;
  b.stack = framework::StackKind::kTcpTls;
  // Through the worker pool, as bench_ext_competing_flows runs its pairs.
  const auto results =
      framework::ParallelRunner(2).run_flow_sets({duel(a, b, 17)});
  ASSERT_EQ(results.size(), 1u);
  ASSERT_EQ(results[0].flows.size(), 2u);
  EXPECT_TRUE(results[0].flows[0].completed);
  EXPECT_TRUE(results[0].flows[1].completed);
  EXPECT_GT(results[0].bottleneck_drops, 0);
}

// ------------------------------------------------------------- artifacts

TEST(Artifacts, CaptureCsvHasHeaderAndRows) {
  framework::ExperimentConfig config;
  config.stack = framework::StackKind::kQuicheSf;
  config.payload_bytes = 1ll * 1024 * 1024;
  config.trace = true;  // the cwnd CSV reads the recovery samples
  auto run = framework::Runner::run_once(config, 9);

  std::ostringstream gaps;
  framework::write_gaps_csv(gaps, run);
  const std::string gaps_str = gaps.str();
  EXPECT_EQ(gaps_str.rfind("gap_ms\n", 0), 0u);
  // header + one line per gap
  const auto lines = std::count(gaps_str.begin(), gaps_str.end(), '\n');
  EXPECT_EQ(lines, static_cast<long>(run.gaps.gaps_ms.size()) + 1);

  std::ostringstream trace;
  framework::write_cwnd_trace_csv(trace, run);
  const std::string trace_str = trace.str();
  EXPECT_NE(trace_str.find("cwnd_bytes"), std::string::npos);
  EXPECT_GT(std::count(trace_str.begin(), trace_str.end(), '\n'), 100);

  std::ostringstream summary;
  framework::write_summary_csv(summary, "probe", run, true);
  EXPECT_NE(summary.str().find("goodput_mbps"), std::string::npos);
  EXPECT_NE(summary.str().find("probe,1,"), std::string::npos);
}

TEST(Artifacts, CaptureCsvRoundTripCounts) {
  sim::EventLoop loop;
  net::Packet pkt;
  pkt.id = 1;
  pkt.flow = 1;
  pkt.size_bytes = 1500;
  pkt.wire_time = sim::Time::zero() + 5_ms;
  std::ostringstream out;
  framework::write_capture_csv(out, {pkt});
  const std::string str = out.str();
  EXPECT_EQ(std::count(str.begin(), str.end(), '\n'), 2);  // header + row
  EXPECT_NE(str.find("5000000"), std::string::npos);       // 5 ms in ns
}

}  // namespace
}  // namespace quicsteps
