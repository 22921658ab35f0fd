// Unit + integration tests for the TCP/TLS baseline model: segment
// accounting, cumulative/SACK ACK processing, RACK-style loss rules,
// Karn's rule, RTO behavior, and an end-to-end transfer.
#include <gtest/gtest.h>

#include "kernel/qdisc_netem.hpp"
#include "kernel/qdisc_tbf.hpp"
#include "net/packet_slab.hpp"
#include "tcp/tcp_client.hpp"
#include "tcp/tcp_connection.hpp"
#include "tcp/tcp_server.hpp"

namespace quicsteps::tcp {
namespace {

using namespace quicsteps::sim::literals;
using net::AckBlock;
using net::DataRate;
using net::Packet;
using net::TransportAck;
using sim::Duration;
using sim::EventLoop;
using sim::Time;

TcpConnection::Config small_transfer(std::int64_t segments = 50) {
  TcpConnection::Config cfg;
  cfg.total_payload_bytes = segments * kPayloadPerSegment;
  return cfg;
}

TransportAck tcp_ack(std::vector<AckBlock> blocks,
                     Duration delay = Duration::zero()) {
  TransportAck ack;
  ack.blocks = std::move(blocks);
  ack.ack_delay = delay;
  return ack;
}

TEST(TcpConnection, BuildsSequentialSegments) {
  TcpConnection conn(small_transfer());
  auto s0 = conn.build_segment(Time::zero());
  auto s1 = conn.build_segment(Time::zero());
  EXPECT_EQ(s0.packet_number, 0u);
  EXPECT_EQ(s1.packet_number, 1u);
  EXPECT_EQ(s1.stream_offset, kPayloadPerSegment);
  EXPECT_EQ(conn.bytes_in_flight(), s0.size_bytes + s1.size_bytes);
}

TEST(TcpConnection, CumulativeAckAdvancesCompletion) {
  TcpConnection conn(small_transfer(3));
  for (int i = 0; i < 3; ++i) conn.build_segment(Time::zero());
  EXPECT_FALSE(conn.transfer_complete());
  conn.on_ack(tcp_ack({{0, 2}}), Time::zero() + 40_ms);
  EXPECT_TRUE(conn.transfer_complete());
  EXPECT_EQ(conn.bytes_in_flight(), 0);
}

TEST(TcpConnection, SackHoleDeclaredLostAfterDupThreshold) {
  TcpConnection conn(small_transfer());
  for (int i = 0; i < 8; ++i) conn.build_segment(Time::zero());
  // Cumulative 0..1, SACK 5..7: hole 2..4; seq 2,3,4 all >= 3 behind 7.
  conn.on_ack(tcp_ack({{5, 7}, {0, 1}}), Time::zero() + 40_ms);
  EXPECT_EQ(conn.stats().segments_declared_lost, 3);
  // Lost segments queue for retransmission, oldest first, same sequence.
  auto retx = conn.build_segment(Time::zero() + 41_ms);
  EXPECT_EQ(retx.packet_number, 2u);
}

TEST(TcpConnection, RetransmissionJudgedOnlyByTime) {
  TcpConnection conn(small_transfer());
  for (int i = 0; i < 8; ++i) conn.build_segment(Time::zero());
  conn.on_ack(tcp_ack({{5, 7}, {0, 1}}), Time::zero() + 40_ms);
  ASSERT_EQ(conn.stats().segments_declared_lost, 3);
  // Retransmit seq 2; newer SACKs must NOT instantly re-declare it lost.
  conn.build_segment(Time::zero() + 41_ms);
  conn.on_ack(tcp_ack({{8, 8}, {0, 1}}), Time::zero() + 45_ms);
  EXPECT_EQ(conn.stats().segments_declared_lost, 3);  // unchanged
}

TEST(TcpConnection, KarnsRuleSkipsRetransmittedRttSamples) {
  TcpConnection conn(small_transfer());
  for (int i = 0; i < 8; ++i) conn.build_segment(Time::zero());
  conn.on_ack(tcp_ack({{5, 7}, {0, 1}}), Time::zero() + 40_ms);
  const auto srtt_before = conn.rtt().smoothed();
  conn.build_segment(Time::zero() + 100_ms);  // retransmit seq 2
  // ACK covering only the retransmitted segment: no RTT update.
  conn.on_ack(tcp_ack({{2, 2}}), Time::zero() + 900_ms);
  EXPECT_EQ(conn.rtt().smoothed(), srtt_before);
}

TEST(TcpConnection, RtoRetransmitsOldestAndBacksOff) {
  TcpConnection conn(small_transfer());
  conn.build_segment(Time::zero());
  const Time first_deadline = conn.next_timer_deadline();
  EXPECT_GE(first_deadline, Time::zero() + 200_ms);  // RTO_MIN
  conn.on_timer(first_deadline);
  EXPECT_EQ(conn.stats().rto_fired, 1);
  EXPECT_TRUE(conn.has_data_to_send());
  conn.build_segment(first_deadline);  // retransmit
  const Time second_deadline = conn.next_timer_deadline();
  EXPECT_GT(second_deadline - first_deadline,
            first_deadline - Time::zero());  // exponential backoff
}

TEST(TcpConnection, CongestionBlockedAtInitialWindow) {
  TcpConnection conn(small_transfer());
  int sent = 0;
  while (!conn.congestion_blocked() && sent < 100) {
    conn.build_segment(Time::zero());
    ++sent;
  }
  EXPECT_EQ(sent, 10);
}

struct TcpHarness {
  EventLoop loop;
  net::PacketSlab slab;
  // The paper's path, as in quic_test's Harness: a 40 Mbit/s TBF
  // bottleneck with one segment of burst, then 20 ms of netem each way.
  kernel::NetemQdisc ack_netem;
  TcpServer server;
  kernel::TbfQdisc bottleneck;
  kernel::NetemQdisc data_netem;
  TcpClient client;

  /// The default buffer never fills.
  explicit TcpHarness(std::int64_t payload,
                      std::int64_t buffer_bytes = std::int64_t{1} << 40)
      : ack_netem(loop, slab, {.delay = 20_ms}, sim::Rng(1), &server),
        server(loop,
               [&] {
                 TcpServer::Config cfg;
                 cfg.connection.total_payload_bytes = payload;
                 return cfg;
               }(),
               &bottleneck),
        bottleneck(loop, slab,
                   {.rate = DataRate::megabits_per_second(40),
                    .burst_bytes = kSegmentSize,
                    .limit_bytes = buffer_bytes},
                   &data_netem),
        data_netem(loop, slab, {.delay = 20_ms}, sim::Rng(2), &client),
        client(loop, slab, {.expected_payload_bytes = payload, .ack = {}},
               &ack_netem) {}
};

TEST(TcpEndToEnd, LosslessTransferCompletes) {
  const std::int64_t payload = 300 * kPayloadPerSegment;
  TcpHarness h(payload);
  h.server.start();
  h.loop.run_until(Time::zero() + 60_s);
  EXPECT_TRUE(h.client.complete());
  EXPECT_EQ(h.client.stats().payload_bytes_received, payload);
  EXPECT_EQ(h.server.connection().stats().segments_declared_lost, 0);
}

TEST(TcpEndToEnd, LossyBottleneckCompletesWithRetransmissions) {
  const std::int64_t payload = 600 * kPayloadPerSegment;
  TcpHarness h(payload, 20 * kSegmentSize);
  h.server.start();
  h.loop.run_until(Time::zero() + 120_s);
  EXPECT_TRUE(h.client.complete());
  EXPECT_GT(h.server.connection().stats().segments_retransmitted, 0);
  EXPECT_EQ(h.client.stats().payload_bytes_received, payload);
}

TEST(TcpEndToEnd, DuplicateTriggersImmediateAck) {
  // Covered implicitly by the lossy test completing; here verify the
  // counter moves when the same segment arrives twice.
  EventLoop loop;
  net::PacketSlab slab;
  net::CollectorSink acks;
  TcpClient client(loop, slab, {.expected_payload_bytes = 1 << 20, .ack = {}},
                   &acks);
  Packet seg;
  seg.kind = net::PacketKind::kTcpData;
  seg.packet_number = 0;
  seg.stream_offset = 0;
  seg.stream_length = kPayloadPerSegment;
  seg.size_bytes = kSegmentSize;
  client.on_datagram(seg);
  const auto before = acks.packets().size();
  client.on_datagram(seg);  // duplicate
  EXPECT_EQ(client.stats().duplicate_segments, 1);
  EXPECT_GT(acks.packets().size(), before);  // immediate dup-ACK
}

}  // namespace
}  // namespace quicsteps::tcp
