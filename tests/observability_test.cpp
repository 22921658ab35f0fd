// Tests for the observability and impairment extensions: the qlog writer,
// connection observer hooks, netem loss/reordering, and GRO coalescing.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>

#include "framework/runner.hpp"
#include "kernel/qdisc_netem.hpp"
#include "kernel/udp_socket.hpp"
#include "quic/qlog.hpp"

namespace quicsteps {
namespace {

using namespace quicsteps::sim::literals;
using net::Packet;
using sim::Duration;
using sim::EventLoop;
using sim::Time;

// ------------------------------------------------------------------ qlog

TEST(Qlog, HeaderAndEventShapes) {
  std::ostringstream out;
  quic::QlogWriter qlog(out);
  qlog.write_header("unit");

  Packet pkt;
  pkt.packet_number = 7;
  pkt.size_bytes = 1500;
  pkt.stream_offset = 1402;
  pkt.stream_length = 1402;
  pkt.has_txtime = true;
  pkt.txtime = Time::zero() + 3_ms;
  pkt.expected_send_time = Time::zero() + 3_ms;
  qlog.on_packet_sent(Time::zero() + 2_ms, pkt);
  qlog.on_ack_processed(Time::zero() + 42_ms, 7, 1500);
  qlog.on_packets_lost(Time::zero() + 80_ms, 2, 3000);
  qlog.on_metrics(Time::zero() + 80_ms, 30000, 15000, 40_ms,
                  net::DataRate::megabits_per_second(40));

  const std::string log = out.str();
  EXPECT_NE(log.find("\"qlog_version\":\"0.4\""), std::string::npos);
  EXPECT_NE(log.find("transport:packet_sent"), std::string::npos);
  EXPECT_NE(log.find("\"packet_number\":7"), std::string::npos);
  EXPECT_NE(log.find("\"txtime_us\":3000.000"), std::string::npos);
  EXPECT_NE(log.find("recovery:packet_lost"), std::string::npos);
  EXPECT_NE(log.find("\"congestion_window\":30000"), std::string::npos);
  EXPECT_NE(log.find("\"pacing_rate\":40000000"), std::string::npos);
  EXPECT_EQ(qlog.events_written(), 4);
  // JSON-SEQ: one record per line.
  EXPECT_EQ(std::count(log.begin(), log.end(), '\n'), 5);
}

// Regression: qlog used to render times via to_millis(), erasing the
// sub-millisecond pacing signal the study is about. Every timestamp must
// carry exact microsecond (and sub-µs) digits.
TEST(Qlog, TimestampsAreMicrosecondExact) {
  std::ostringstream out;
  quic::QlogWriter qlog(out);
  qlog.write_header("unit");

  Packet pkt;
  pkt.packet_number = 1;
  pkt.size_bytes = 1200;
  pkt.has_txtime = true;
  pkt.txtime = Time::zero() + Duration::nanos(1234567);
  pkt.expected_send_time = pkt.txtime;
  qlog.on_packet_sent(Time::zero() + Duration::nanos(1230042), pkt);
  qlog.on_metrics(Time::zero() + Duration::nanos(1230042), 30000, 15000,
                  Duration::nanos(40001500),
                  net::DataRate::megabits_per_second(40));

  const std::string log = out.str();
  // Header declares the unit; events carry exact µs with three sub-µs
  // digits — no float rounding, no truncation to milliseconds.
  EXPECT_NE(log.find("\"time_unit\":\"us\""), std::string::npos);
  EXPECT_NE(log.find("\"time\":1230.042"), std::string::npos);
  EXPECT_NE(log.find("\"txtime_us\":1234.567"), std::string::npos);
  EXPECT_NE(log.find("\"intended_send_us\":1234.567"), std::string::npos);
  EXPECT_NE(log.find("\"smoothed_rtt\":40001.500"), std::string::npos);
  // The old millisecond fields must be gone.
  EXPECT_EQ(log.find("txtime_ms"), std::string::npos);
  EXPECT_EQ(log.find("intended_send_ms"), std::string::npos);
}

TEST(Qlog, ConnectionEmitsFullLifecycle) {
  std::ostringstream out;
  quic::QlogWriter qlog(out);
  quic::Connection::Config cfg;
  cfg.total_payload_bytes = 10 * quic::kPayloadPerDatagram;
  quic::Connection conn(cfg);
  conn.set_observer(&qlog);

  for (int i = 0; i < 10; ++i) {
    conn.build_packet(Time::zero(), Time::zero());
  }
  Packet ack;
  ack.kind = net::PacketKind::kQuicAck;
  auto payload = std::make_shared<net::TransportAck>();
  payload->blocks = {net::AckBlock{8, 10}};  // leaves 1..5 as losses
  ack.ack = payload;
  conn.on_ack_packet(ack, Time::zero() + 40_ms);

  const std::string log = out.str();
  EXPECT_NE(log.find("transport:packet_sent"), std::string::npos);
  EXPECT_NE(log.find("transport:packet_received"), std::string::npos);
  EXPECT_NE(log.find("recovery:packet_lost"), std::string::npos);
  EXPECT_NE(log.find("recovery:metrics_updated"), std::string::npos);
}

TEST(Qlog, RunnerWritesPerRepetitionFiles) {
  framework::ExperimentConfig config;
  config.stack = framework::StackKind::kQuicheSf;
  config.payload_bytes = 1ll * 1024 * 1024;
  config.qlog_path = "/tmp/quicsteps_qlog_test";
  auto run = framework::Runner::run_once(config, 77);
  EXPECT_TRUE(run.completed);
  std::ifstream in("/tmp/quicsteps_qlog_test.77");
  ASSERT_TRUE(in.good());
  std::string first_line;
  std::getline(in, first_line);
  EXPECT_NE(first_line.find("JSON-SEQ"), std::string::npos);
}

// ------------------------------------------------------------- impairments

TEST(NetemImpairments, RandomLossDropsTheConfiguredShare) {
  EventLoop loop;
  net::PacketSlab slab;
  net::CollectorSink sink;
  kernel::NetemQdisc netem(loop, slab,
                           {.delay = 1_ms, .loss_probability = 0.2},
                           sim::Rng(5), &sink);
  for (int i = 0; i < 5000; ++i) {
    Packet pkt;
    pkt.id = static_cast<std::uint64_t>(i);
    pkt.size_bytes = 1500;
    netem.deliver(pkt);
  }
  loop.run();
  EXPECT_EQ(slab.live(), 0u);
  EXPECT_NEAR(static_cast<double>(netem.random_losses()) / 5000.0, 0.2,
              0.02);
  EXPECT_EQ(sink.packets().size() + static_cast<std::size_t>(netem.random_losses()),
            5000u);
}

TEST(NetemImpairments, ReorderJumpsTheQueue) {
  EventLoop loop;
  net::PacketSlab slab;
  net::CollectorSink sink;
  kernel::NetemQdisc netem(loop, slab,
                           {.delay = 5_ms,
                            .reorder_probability = 0.3,
                            .reorder_gap = 2_ms},
                           sim::Rng(5), &sink);
  for (int i = 0; i < 1000; ++i) {
    loop.schedule_at(Time::zero() + Duration::micros(i * 100), [&netem, i] {
      Packet pkt;
      pkt.id = static_cast<std::uint64_t>(i);
      pkt.size_bytes = 1500;
      netem.deliver(pkt);
    });
  }
  loop.run();
  EXPECT_EQ(slab.live(), 0u);
  ASSERT_EQ(sink.packets().size(), 1000u);
  EXPECT_GT(netem.reordered(), 200);
  // Some packets must actually arrive out of id order.
  int inversions = 0;
  for (std::size_t i = 1; i < sink.packets().size(); ++i) {
    if (sink.packets()[i].id < sink.packets()[i - 1].id) ++inversions;
  }
  EXPECT_GT(inversions, 0);
}

TEST(Gro, CoalescesArrivalsIntoOneWakeup) {
  EventLoop loop;
  kernel::OsTimingConfig quiet;
  quiet.wakeup_latency_mean = Duration::zero();
  quiet.wakeup_latency_stddev = Duration::zero();
  kernel::OsModel os(quiet, sim::Rng(2));
  net::PacketSlab slab;
  int delivered = 0;
  kernel::UdpReceiver receiver(loop, slab, os, 1 << 20,
                               [&](Packet) { ++delivered; }, 500_us);
  for (int i = 0; i < 8; ++i) {
    Packet pkt;
    pkt.size_bytes = 1500;
    receiver.deliver(pkt);
  }
  loop.run();
  EXPECT_EQ(delivered, 8);
  EXPECT_EQ(receiver.wakeups(), 1);  // one batch, one recvmsg
}

TEST(Gro, SeparatedArrivalsAreSeparateWakeups) {
  EventLoop loop;
  kernel::OsTimingConfig quiet;
  quiet.wakeup_latency_mean = Duration::zero();
  quiet.wakeup_latency_stddev = Duration::zero();
  kernel::OsModel os(quiet, sim::Rng(2));
  net::PacketSlab slab;
  int delivered = 0;
  kernel::UdpReceiver receiver(loop, slab, os, 1 << 20,
                               [&](Packet) { ++delivered; }, 500_us);
  for (int i = 0; i < 4; ++i) {
    loop.schedule_at(Time::zero() + Duration::millis(i * 10), [&receiver] {
      Packet pkt;
      pkt.size_bytes = 1500;
      receiver.deliver(pkt);
    });
  }
  loop.run();
  EXPECT_EQ(delivered, 4);
  EXPECT_EQ(receiver.wakeups(), 4);
}

TEST(Impairments, LossyPathTransferStillCompletes) {
  framework::ExperimentConfig config;
  config.stack = framework::StackKind::kQuicheSf;
  config.topology.server_qdisc = framework::QdiscKind::kFq;
  config.topology.path_loss_probability = 0.002;
  config.payload_bytes = 2ll * 1024 * 1024;
  auto run = framework::Runner::run_once(config, 19);
  EXPECT_TRUE(run.completed);
  EXPECT_GT(run.packets_declared_lost, 0);
}

}  // namespace
}  // namespace quicsteps
