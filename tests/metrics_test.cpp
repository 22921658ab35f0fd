// Unit tests for the metrics toolkit: summaries, CDFs, gap analysis,
// packet-train analysis (the paper's 0.1 ms rule), precision, and goodput.
#include <gtest/gtest.h>

#include "metrics/capture_analysis.hpp"
#include "metrics/goodput.hpp"
#include "metrics/stats.hpp"

namespace quicsteps::metrics {
namespace {

using namespace quicsteps::sim::literals;
using net::Packet;
using sim::Duration;
using sim::Time;

Packet wire_packet(double ms, std::uint32_t flow = 1,
                   net::PacketKind kind = net::PacketKind::kQuicData) {
  Packet pkt;
  pkt.flow = flow;
  pkt.kind = kind;
  pkt.size_bytes = 1500;
  pkt.wire_time = Time::zero() + Duration::seconds_f(ms / 1e3);
  return pkt;
}

TEST(Stats, SummaryMeanAndStddev) {
  auto s = summarize({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0});
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_NEAR(s.stddev, 2.138, 0.001);  // sample stddev
  EXPECT_EQ(s.min, 2.0);
  EXPECT_EQ(s.max, 9.0);
}

TEST(Stats, SummaryEdgeCases) {
  EXPECT_EQ(summarize({}).count, 0u);
  auto single = summarize({3.0});
  EXPECT_EQ(single.mean, 3.0);
  EXPECT_EQ(single.stddev, 0.0);
}

TEST(Stats, SummaryFormatting) {
  auto s = summarize({1.0, 2.0, 3.0});
  EXPECT_EQ(s.to_string(2), "2.00 ± 1.00");
}

TEST(Cdf, FractionBelowAndQuantile) {
  Cdf cdf({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(cdf.fraction_below(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.fraction_below(2.0), 0.5);
  EXPECT_DOUBLE_EQ(cdf.fraction_below(10.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 4.0);
}

TEST(Cdf, CurveIsMonotone) {
  Cdf cdf({5.0, 1.0, 3.0, 2.0, 4.0});
  auto curve = cdf.curve(10);
  ASSERT_EQ(curve.size(), 10u);
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GE(curve[i].second, curve[i - 1].second);
    EXPECT_GE(curve[i].first, curve[i - 1].first);
  }
}

TEST(Cdf, AsciiRenderingContainsLegend) {
  Cdf cdf({1.0, 2.0, 3.0});
  auto out = render_ascii_cdf({{"series-a", &cdf}}, 0.0, 4.0, 40, 8, "ms");
  EXPECT_NE(out.find("series-a"), std::string::npos);
  EXPECT_NE(out.find("ms"), std::string::npos);
}

// The gap, train and precision suites pin CaptureAnalyzer's three rules,
// one report each.
CaptureAnalysis analyze(const std::vector<Packet>& capture) {
  return CaptureAnalyzer().analyze(capture);
}

TEST(GapAnalyzerTest, ComputesGapsAndFractions) {
  // Gaps: 0.012 ms (b2b), 0.5 ms, 2.0 ms.
  std::vector<Packet> capture = {wire_packet(0.0), wire_packet(0.012),
                                 wire_packet(0.512), wire_packet(2.512)};
  auto report = analyze(capture).gaps;
  ASSERT_EQ(report.gaps_ms.size(), 3u);
  EXPECT_NEAR(report.back_to_back_fraction, 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(report.below_1500us_fraction, 2.0 / 3.0, 1e-9);
}

TEST(GapAnalyzerTest, FiltersByFlowAndKind) {
  std::vector<Packet> capture = {
      wire_packet(0.0), wire_packet(1.0, 2),  // other flow
      wire_packet(2.0, 1, net::PacketKind::kQuicAck),  // ack, ignored
      wire_packet(3.0)};
  EXPECT_EQ(analyze(capture).wire_data_packets, 2);
}

TEST(GapAnalyzerTest, EmptyAndSingletonCaptures) {
  EXPECT_TRUE(analyze({}).gaps.gaps_ms.empty());
  EXPECT_TRUE(analyze({wire_packet(0.0)}).gaps.gaps_ms.empty());
}

TEST(TrainAnalyzerTest, PaperRuleSplitsAtPointOneMs) {
  // Train of 3 (gaps 0.05 ms), then 0.3 ms gap, then train of 2.
  std::vector<Packet> capture = {wire_packet(0.00), wire_packet(0.05),
                                 wire_packet(0.10), wire_packet(0.40),
                                 wire_packet(0.45)};
  auto report = analyze(capture).trains;
  EXPECT_EQ(report.total_packets, 5);
  ASSERT_EQ(report.train_lengths.size(), 2u);
  EXPECT_EQ(report.train_lengths[0], 3u);
  EXPECT_EQ(report.train_lengths[1], 2u);
  // Packets-by-length weighting: 3 packets in length-3, 2 in length-2.
  EXPECT_EQ(report.packets_by_length.at(3), 3);
  EXPECT_EQ(report.packets_by_length.at(2), 2);
  EXPECT_DOUBLE_EQ(report.fraction_in_trains_up_to(2), 0.4);
  EXPECT_DOUBLE_EQ(report.fraction_in_trains_up_to(5), 1.0);
}

TEST(TrainAnalyzerTest, SinglePacketIsTrainOfOne) {
  auto report = analyze({wire_packet(0.0)}).trains;
  EXPECT_EQ(report.total_packets, 1);
  EXPECT_EQ(report.max_train_length(), 1u);
}

TEST(TrainAnalyzerTest, ExactThresholdBreaksTrain) {
  // Gap of exactly 0.1 ms: the paper's rule is "< 0.1 ms", so it breaks.
  std::vector<Packet> capture = {wire_packet(0.0), wire_packet(0.1)};
  auto report = analyze(capture).trains;
  EXPECT_EQ(report.train_lengths.size(), 2u);
}

TEST(TrainAnalyzerTest, PacketWeightedCdf) {
  // 1 train of 4 + 4 singletons: packet-weighted CDF at length 1 = 0.5.
  std::vector<Packet> capture;
  double t = 0.0;
  for (int i = 0; i < 4; ++i) {
    capture.push_back(wire_packet(t));
    t += 0.01;
  }
  for (int i = 0; i < 4; ++i) {
    t += 1.0;
    capture.push_back(wire_packet(t));
  }
  auto cdf = analyze(capture).trains.packet_train_cdf();
  EXPECT_DOUBLE_EQ(cdf.fraction_below(1.0), 0.5);
  EXPECT_DOUBLE_EQ(cdf.fraction_below(4.0), 1.0);
}

TEST(PrecisionTest, StddevOfOffsets) {
  std::vector<Packet> capture;
  // Offsets: +0.1, -0.1, +0.1, -0.1 ms -> mean 0, stddev ~0.115.
  for (int i = 0; i < 4; ++i) {
    Packet pkt = wire_packet(static_cast<double>(i));
    pkt.expected_send_time =
        pkt.wire_time - Duration::micros(i % 2 == 0 ? 100 : -100);
    capture.push_back(pkt);
  }
  auto report = analyze(capture).precision;
  EXPECT_EQ(report.samples, 4u);
  EXPECT_NEAR(report.summary_ms.mean, 0.0, 1e-9);
  EXPECT_NEAR(report.precision_ms, 0.11547, 1e-4);
}

TEST(PrecisionTest, SkipsNonLeadGsoSegments) {
  Packet lead = wire_packet(0.0);
  lead.gso_buffer_id = 1;
  lead.gso_segment_index = 0;
  Packet tail = wire_packet(0.012);
  tail.gso_buffer_id = 1;
  tail.gso_segment_index = 1;
  auto report = analyze({lead, tail}).precision;
  EXPECT_EQ(report.samples, 1u);
}

TEST(FlowCaptureDemuxTest, RoutesByFlowAndKeepsFirstSlotOfADuplicate) {
  FlowCaptureDemux demux;
  EXPECT_EQ(demux.add_flow(11), 0u);
  EXPECT_EQ(demux.add_flow(10), 1u);
  EXPECT_EQ(demux.add_flow(11), 2u);  // duplicate: packets stay on slot 0
  EXPECT_EQ(demux.add(wire_packet(1.0, 11)), 0);
  EXPECT_EQ(demux.add(wire_packet(1.5, 10)), 1);
  EXPECT_EQ(demux.add(wire_packet(2.0, 11)), 0);
  EXPECT_EQ(demux.add(wire_packet(2.5, 12)), -1);  // unregistered
  EXPECT_EQ(demux.finish(0).wire_data_packets, 2);
  EXPECT_EQ(demux.finish(1).wire_data_packets, 1);
  EXPECT_EQ(demux.finish(2).wire_data_packets, 0);
  // Registering after packets flowed routes the next packet too.
  EXPECT_EQ(demux.add_flow(12), 3u);
  EXPECT_EQ(demux.add(wire_packet(3.0, 12)), 3);
}

TEST(GoodputTest, ComputesRate) {
  auto report = compute_goodput(5'000'000, Time::zero() + 1_s,
                                Time::zero() + 2_s);
  EXPECT_NEAR(report.goodput.mbps(), 40.0, 0.01);
  EXPECT_EQ(report.elapsed, 1_s);
}

TEST(GoodputTest, IncompleteTransferYieldsZero) {
  auto report =
      compute_goodput(5'000'000, Time::zero() + 1_s, Time::infinite());
  EXPECT_TRUE(report.goodput.is_zero());
}

}  // namespace
}  // namespace quicsteps::metrics
