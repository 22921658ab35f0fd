// Unit tests for the congestion controllers: NewReno growth/reduction,
// CUBIC epoch math and rollback mechanism, HyStart++ phases, and the BBR
// state machine across flavors.
#include <gtest/gtest.h>

#include "cc/bbr.hpp"
#include "cc/cc_factory.hpp"
#include "cc/cubic.hpp"
#include "cc/hystart_pp.hpp"
#include "cc/new_reno.hpp"

namespace quicsteps::cc {
namespace {

using namespace quicsteps::sim::literals;
using net::DataRate;
using sim::Duration;
using sim::Time;

AckSample ack_at(Time now, std::int64_t bytes, Time sent_time,
                 std::uint64_t pn = 0) {
  AckSample a;
  a.now = now;
  a.acked_bytes = bytes;
  a.largest_acked_pn = pn;
  a.largest_acked_sent_time = sent_time;
  a.latest_rtt = 40_ms;
  a.smoothed_rtt = 40_ms;
  a.min_rtt = 40_ms;
  a.bytes_in_flight = 1 << 20;  // "cwnd-limited" unless a test overrides
  return a;
}

LossSample loss_at(Time now, std::int64_t packets, Time sent_time) {
  LossSample l;
  l.now = now;
  l.lost_packets = packets;
  l.lost_bytes = packets * kMaxDatagramSize;
  l.largest_lost_sent_time = sent_time;
  return l;
}

// ---------------------------------------------------------------- NewReno

TEST(NewReno, SlowStartDoublesPerRtt) {
  NewReno reno;
  const auto start = reno.cwnd_bytes();
  reno.on_ack(ack_at(Time::zero() + 40_ms, start, Time::zero() + 1_ms));
  EXPECT_EQ(reno.cwnd_bytes(), 2 * start);
  EXPECT_TRUE(reno.in_slow_start());
}

TEST(NewReno, LossHalvesAndSetsSsthresh) {
  NewReno reno;
  reno.on_ack(ack_at(Time::zero() + 40_ms, 10 * kMaxDatagramSize,
                     Time::zero() + 1_ms));
  const auto before = reno.cwnd_bytes();
  reno.on_loss(loss_at(Time::zero() + 50_ms, 3, Time::zero() + 45_ms));
  EXPECT_EQ(reno.cwnd_bytes(), before / 2);
  EXPECT_EQ(reno.ssthresh_bytes(), before / 2);
  EXPECT_FALSE(reno.in_slow_start());
}

TEST(NewReno, OnlyOneReductionPerRecoveryPeriod) {
  NewReno reno;
  reno.on_loss(loss_at(Time::zero() + 50_ms, 1, Time::zero() + 45_ms));
  const auto after_first = reno.cwnd_bytes();
  // Second loss of a packet sent BEFORE recovery began: no new reduction.
  reno.on_loss(loss_at(Time::zero() + 55_ms, 1, Time::zero() + 46_ms));
  EXPECT_EQ(reno.cwnd_bytes(), after_first);
  // Loss of a packet sent after recovery began: fresh congestion event.
  reno.on_loss(loss_at(Time::zero() + 100_ms, 1, Time::zero() + 90_ms));
  EXPECT_LT(reno.cwnd_bytes(), after_first);
}

TEST(NewReno, CongestionAvoidanceGrowsLinearly) {
  NewReno reno;
  reno.on_loss(loss_at(Time::zero() + 50_ms, 1, Time::zero() + 45_ms));
  const auto cwnd = reno.cwnd_bytes();
  // One full cwnd of acked bytes in CA adds ~1 MSS.
  reno.on_ack(ack_at(Time::zero() + 100_ms, cwnd, Time::zero() + 60_ms));
  EXPECT_NEAR(static_cast<double>(reno.cwnd_bytes()),
              static_cast<double>(cwnd + kMaxDatagramSize),
              static_cast<double>(kMaxDatagramSize) / 2);
}

TEST(NewReno, PersistentCongestionCollapsesWindow) {
  NewReno reno;
  auto l = loss_at(Time::zero() + 50_ms, 10, Time::zero() + 45_ms);
  l.persistent_congestion = true;
  reno.on_loss(l);
  EXPECT_EQ(reno.cwnd_bytes(), kMinimumWindow);
}

TEST(NewReno, NoGrowthDuringRecovery) {
  NewReno reno;
  reno.on_loss(loss_at(Time::zero() + 50_ms, 1, Time::zero() + 45_ms));
  const auto cwnd = reno.cwnd_bytes();
  // ACK for a packet sent before recovery started: ignored.
  reno.on_ack(ack_at(Time::zero() + 60_ms, cwnd, Time::zero() + 40_ms));
  EXPECT_EQ(reno.cwnd_bytes(), cwnd);
}

// ------------------------------------------------------------------ CUBIC

CcConfig cubic_no_hystart() {
  CcConfig cfg;
  cfg.hystart = false;
  return cfg;
}

TEST(CubicTest, SlowStartGrowsByAckedBytes) {
  Cubic cubic(cubic_no_hystart());
  const auto start = cubic.cwnd_bytes();
  cubic.on_ack(ack_at(Time::zero() + 40_ms, start, Time::zero() + 1_ms));
  EXPECT_EQ(cubic.cwnd_bytes(), 2 * start);
}

TEST(CubicTest, LossAppliesBeta) {
  Cubic cubic(cubic_no_hystart());
  cubic.on_ack(ack_at(Time::zero() + 40_ms, 20 * kMaxDatagramSize,
                      Time::zero() + 1_ms));
  const auto before = cubic.cwnd_bytes();
  cubic.on_loss(loss_at(Time::zero() + 50_ms, 3, Time::zero() + 45_ms));
  EXPECT_EQ(cubic.cwnd_bytes(),
            static_cast<std::int64_t>(static_cast<double>(before) * 0.7));
  EXPECT_EQ(cubic.congestion_events(), 1);
}

TEST(CubicTest, WindowRecoversTowardWmax) {
  // After a reduction, the concave region must grow cwnd back toward w_max.
  Cubic cubic(cubic_no_hystart());
  cubic.on_ack(ack_at(Time::zero() + 40_ms, 40 * kMaxDatagramSize,
                      Time::zero() + 1_ms));
  const auto w_max = cubic.cwnd_bytes();
  cubic.on_loss(loss_at(Time::zero() + 50_ms, 3, Time::zero() + 45_ms));
  const auto floor = cubic.cwnd_bytes();
  Time t = Time::zero() + 100_ms;
  for (int i = 0; i < 400; ++i) {
    cubic.on_ack(ack_at(t, kMaxDatagramSize, t - 40_ms));
    t += 10_ms;
  }
  EXPECT_GT(cubic.cwnd_bytes(), floor);
  // Fast convergence pulled w_max down to cwnd*(1+beta)/2; after 4 seconds
  // of growth the window must have at least reached that reduced w_max.
  EXPECT_GT(cubic.cwnd_bytes(),
            static_cast<std::int64_t>(0.8 * static_cast<double>(w_max)));
}

TEST(CubicTest, GrowthIsCubicNotLinear) {
  // The increase over [K, K+dt] accelerates: compare early vs late growth
  // after a congestion event.
  Cubic cubic(cubic_no_hystart());
  cubic.on_ack(ack_at(Time::zero() + 40_ms, 60 * kMaxDatagramSize,
                      Time::zero() + 1_ms));
  cubic.on_loss(loss_at(Time::zero() + 50_ms, 3, Time::zero() + 45_ms));
  Time t = Time::zero() + 100_ms;
  std::int64_t w0 = cubic.cwnd_bytes();
  for (int i = 0; i < 50; ++i) {
    cubic.on_ack(ack_at(t, kMaxDatagramSize, t - 40_ms));
    t += 20_ms;
  }
  const std::int64_t early_growth = cubic.cwnd_bytes() - w0;
  w0 = cubic.cwnd_bytes();
  for (int i = 0; i < 50; ++i) {
    t += 20_ms;
    cubic.on_ack(ack_at(t, kMaxDatagramSize, t - 40_ms));
  }
  const std::int64_t late_growth = cubic.cwnd_bytes() - w0;
  // Early growth (concave approach to w_max) exceeds mid growth near the
  // plateau, OR late convex growth exceeds the plateau growth — either way
  // the two segments must differ materially, which linear growth wouldn't.
  EXPECT_NE(early_growth / kMaxDatagramSize, late_growth / kMaxDatagramSize);
}

TEST(CubicTest, CwndValidationFreezesOnlyInCongestionAvoidance) {
  CcConfig cfg = cubic_no_hystart();
  cfg.require_cwnd_limited_growth = true;
  Cubic cubic(cfg);
  // Slow start is exempt: the window must still grow while app-limited.
  const auto start = cubic.cwnd_bytes();
  auto ss = ack_at(Time::zero() + 40_ms, kMaxDatagramSize, Time::zero() + 1_ms);
  ss.bytes_in_flight = 0;
  cubic.on_ack(ss);
  EXPECT_GT(cubic.cwnd_bytes(), start);
  // Enter congestion avoidance via a loss, then a pacing-limited ACK
  // (almost nothing in flight) must not grow the window — ngtcp2's
  // Table 1 freeze.
  cubic.on_loss(loss_at(Time::zero() + 50_ms, 3, Time::zero() + 45_ms));
  const auto ca_cwnd = cubic.cwnd_bytes();
  auto ca = ack_at(Time::zero() + 100_ms, kMaxDatagramSize,
                   Time::zero() + 60_ms);
  ca.bytes_in_flight = 0;
  cubic.on_ack(ca);
  EXPECT_EQ(cubic.cwnd_bytes(), ca_cwnd);
  // A cwnd-limited ACK does grow it.
  auto limited = ack_at(Time::zero() + 140_ms, kMaxDatagramSize,
                        Time::zero() + 100_ms);
  limited.bytes_in_flight = cubic.cwnd_bytes();
  cubic.on_ack(limited);
  EXPECT_GT(cubic.cwnd_bytes(), ca_cwnd);
}

TEST(CubicTest, RollbackRestoresCheckpointOnSmallLoss) {
  CcConfig cfg = cubic_no_hystart();
  cfg.spurious_loss_rollback = true;
  cfg.rollback_threshold_packets = 5;
  Cubic cubic(cfg);
  cubic.on_ack(ack_at(Time::zero() + 40_ms, 30 * kMaxDatagramSize,
                      Time::zero() + 1_ms));
  const auto before = cubic.cwnd_bytes();
  // A 2-packet loss (below threshold) reduces the window...
  cubic.on_loss(loss_at(Time::zero() + 50_ms, 2, Time::zero() + 45_ms));
  EXPECT_LT(cubic.cwnd_bytes(), before);
  // ...but the next ACK for a post-recovery packet rolls it back.
  cubic.on_ack(
      ack_at(Time::zero() + 90_ms, kMaxDatagramSize, Time::zero() + 60_ms));
  EXPECT_EQ(cubic.cwnd_bytes(), before);
  EXPECT_EQ(cubic.rollbacks_performed(), 1);
}

TEST(CubicTest, NoRollbackOnLargeLoss) {
  CcConfig cfg = cubic_no_hystart();
  cfg.spurious_loss_rollback = true;
  cfg.rollback_threshold_packets = 5;
  Cubic cubic(cfg);
  cubic.on_ack(ack_at(Time::zero() + 40_ms, 30 * kMaxDatagramSize,
                      Time::zero() + 1_ms));
  const auto before = cubic.cwnd_bytes();
  cubic.on_loss(loss_at(Time::zero() + 50_ms, 20, Time::zero() + 45_ms));
  cubic.on_ack(
      ack_at(Time::zero() + 90_ms, kMaxDatagramSize, Time::zero() + 60_ms));
  EXPECT_LT(cubic.cwnd_bytes(), before);
  EXPECT_EQ(cubic.rollbacks_performed(), 0);
}

TEST(CubicTest, RollbackDisabledBySfPatch) {
  CcConfig cfg = cubic_no_hystart();
  cfg.spurious_loss_rollback = false;  // the paper's SF patch
  Cubic cubic(cfg);
  cubic.on_ack(ack_at(Time::zero() + 40_ms, 30 * kMaxDatagramSize,
                      Time::zero() + 1_ms));
  const auto before = cubic.cwnd_bytes();
  cubic.on_loss(loss_at(Time::zero() + 50_ms, 2, Time::zero() + 45_ms));
  cubic.on_ack(
      ack_at(Time::zero() + 90_ms, kMaxDatagramSize, Time::zero() + 60_ms));
  EXPECT_LT(cubic.cwnd_bytes(), before);
  EXPECT_EQ(cubic.rollbacks_performed(), 0);
}

TEST(CubicTest, PerpetualRollbackOscillation) {
  // The pathological cycle from the paper's Appendix A: small loss ->
  // reduce -> rollback -> small loss -> ... The window must oscillate
  // between two values instead of converging.
  CcConfig cfg = cubic_no_hystart();
  cfg.spurious_loss_rollback = true;
  Cubic cubic(cfg);
  cubic.on_ack(ack_at(Time::zero() + 40_ms, 30 * kMaxDatagramSize,
                      Time::zero() + 1_ms));
  const auto high = cubic.cwnd_bytes();
  Time t = Time::zero() + 100_ms;
  for (int cycle = 0; cycle < 10; ++cycle) {
    cubic.on_loss(loss_at(t, 2, t - 5_ms));
    const auto low = cubic.cwnd_bytes();
    EXPECT_LT(low, high);
    t += 40_ms;
    cubic.on_ack(ack_at(t, kMaxDatagramSize, t - 10_ms));
    EXPECT_EQ(cubic.cwnd_bytes(), high) << "cycle " << cycle;
    t += 40_ms;
  }
  EXPECT_EQ(cubic.rollbacks_performed(), 10);
}

// -------------------------------------------------------------- HyStart++

TEST(HystartPP, StaysInSlowStartWithFlatRtt) {
  HystartPP hs;
  for (int round = 0; round < 10; ++round) {
    hs.on_round_start();
    for (int i = 0; i < 8; ++i) hs.on_rtt_sample(40_ms);
  }
  EXPECT_EQ(hs.phase(), HystartPP::Phase::kSlowStart);
}

TEST(HystartPP, EntersCssOnRttInflation) {
  HystartPP hs;
  hs.on_round_start();
  for (int i = 0; i < 8; ++i) hs.on_rtt_sample(40_ms);
  hs.on_round_start();
  for (int i = 0; i < 8; ++i) hs.on_rtt_sample(60_ms);  // +50% >> eta
  EXPECT_EQ(hs.phase(), HystartPP::Phase::kCss);
  EXPECT_EQ(hs.growth_divisor(), 4);
}

TEST(HystartPP, CssConfirmsAfterFiveRounds) {
  HystartPP hs;
  hs.on_round_start();
  for (int i = 0; i < 8; ++i) hs.on_rtt_sample(40_ms);
  for (int round = 0; round < 7; ++round) {
    hs.on_round_start();
    for (int i = 0; i < 8; ++i) hs.on_rtt_sample(60_ms);
    if (hs.done()) break;
  }
  EXPECT_TRUE(hs.done());
}

TEST(HystartPP, CssRevertsWhenRttDeflates) {
  HystartPP hs;
  hs.on_round_start();
  for (int i = 0; i < 8; ++i) hs.on_rtt_sample(40_ms);
  hs.on_round_start();
  for (int i = 0; i < 8; ++i) hs.on_rtt_sample(60_ms);
  ASSERT_EQ(hs.phase(), HystartPP::Phase::kCss);
  hs.on_round_start();
  for (int i = 0; i < 8; ++i) hs.on_rtt_sample(40_ms);  // back to baseline
  EXPECT_EQ(hs.phase(), HystartPP::Phase::kSlowStart);
}

TEST(HystartPP, CongestionEventEndsIt) {
  HystartPP hs;
  hs.on_congestion_event();
  EXPECT_TRUE(hs.done());
}

// -------------------------------------------------------------------- BBR

AckSample bbr_ack(Time now, std::int64_t bytes, std::uint64_t pn,
                  DataRate bw, Duration rtt = 40_ms) {
  AckSample a;
  a.now = now;
  a.acked_bytes = bytes;
  a.largest_acked_pn = pn;
  a.largest_acked_sent_time = now - rtt;
  a.latest_rtt = rtt;
  a.smoothed_rtt = rtt;
  a.min_rtt = rtt;
  a.bandwidth_sample = bw;
  a.bytes_in_flight = 0;
  return a;
}

TEST(BbrTest, StartsInStartupWithHighGain) {
  Bbr bbr;
  EXPECT_EQ(bbr.state(), Bbr::State::kStartup);
  EXPECT_TRUE(bbr.in_slow_start());
  EXPECT_TRUE(bbr.has_own_pacing_rate());
}

TEST(BbrTest, ExitsStartupWhenBandwidthPlateaus) {
  Bbr bbr;
  Time t = Time::zero();
  std::uint64_t pn = 0;
  const auto bw = DataRate::megabits_per_second(40);
  // Feed identical bandwidth samples across many rounds: growth stalls.
  for (int round = 0; round < 8 && bbr.state() == Bbr::State::kStartup;
       ++round) {
    t += 40_ms;
    bbr.on_packet_sent(t, ++pn, 1500, 0);
    bbr.on_ack(bbr_ack(t, 1500, pn, bw));
  }
  EXPECT_NE(bbr.state(), Bbr::State::kStartup);
}

TEST(BbrTest, InfiniteBandwidthSampleStillExitsStartup) {
  // A zero-duration delivery interval yields DataRate::infinite() — the
  // 1 << 62 sentinel. The 25% growth test multiplies full_bw by 5, which
  // wraps int64 at the sentinel; it runs in __int128 so the plateau
  // detection keeps working and startup still exits after three
  // no-growth rounds.
  Bbr bbr;
  Time t = Time::zero();
  std::uint64_t pn = 0;
  bbr.on_packet_sent(t + 40_ms, ++pn, 1500, 0);
  bbr.on_ack(bbr_ack(t + 40_ms, 1500, pn, DataRate::infinite()));
  for (int round = 0; round < 8 && bbr.state() == Bbr::State::kStartup;
       ++round) {
    t += 40_ms;
    bbr.on_packet_sent(t, ++pn, 1500, 0);
    bbr.on_ack(bbr_ack(t, 1500, pn, DataRate::megabits_per_second(40)));
  }
  EXPECT_NE(bbr.state(), Bbr::State::kStartup);
}

TEST(BbrTest, PacingRateTracksBandwidthTimesGain) {
  Bbr bbr;
  Time t = Time::zero() + 40_ms;
  bbr.on_packet_sent(t, 1, 1500, 0);
  bbr.on_ack(bbr_ack(t, 1500, 1, DataRate::megabits_per_second(40)));
  EXPECT_NEAR(bbr.pacing_rate().mbps(), 40.0 * 2.885, 1.0);
}

TEST(BbrTest, BandwidthFilterKeepsWindowedMax) {
  Bbr bbr;
  Time t = Time::zero();
  std::uint64_t pn = 0;
  bbr.on_packet_sent(t + 40_ms, ++pn, 1500, 0);
  bbr.on_ack(bbr_ack(t + 40_ms, 1500, pn, DataRate::megabits_per_second(50)));
  bbr.on_packet_sent(t + 80_ms, ++pn, 1500, 0);
  bbr.on_ack(bbr_ack(t + 80_ms, 1500, pn, DataRate::megabits_per_second(30)));
  EXPECT_NEAR(bbr.bottleneck_bandwidth().mbps(), 50.0, 0.1);
}

TEST(BbrTest, AppLimitedSamplesOnlyRaise) {
  Bbr bbr;
  Time t = Time::zero();
  std::uint64_t pn = 0;
  bbr.on_packet_sent(t + 40_ms, ++pn, 1500, 0);
  bbr.on_ack(bbr_ack(t + 40_ms, 1500, pn, DataRate::megabits_per_second(50)));
  auto low = bbr_ack(t + 80_ms, 1500, pn + 1,
                     DataRate::megabits_per_second(10));
  low.app_limited = true;
  bbr.on_packet_sent(t + 80_ms, ++pn, 1500, 0);
  bbr.on_ack(low);
  EXPECT_NEAR(bbr.bottleneck_bandwidth().mbps(), 50.0, 0.1);
}

TEST(BbrTest, V1IgnoresLoss) {
  Bbr bbr({.flavor = BbrFlavor::kV1});
  const auto cwnd = bbr.cwnd_bytes();
  bbr.on_loss(loss_at(Time::zero() + 50_ms, 10, Time::zero() + 45_ms));
  EXPECT_EQ(bbr.cwnd_bytes(), cwnd);
}

TEST(BbrTest, LossCappedReducesOnLoss) {
  Bbr bbr({.flavor = BbrFlavor::kLossCapped});
  Time t = Time::zero() + 40_ms;
  bbr.on_packet_sent(t, 1, 1500, 0);
  auto a = bbr_ack(t, 100 * 1500, 1, DataRate::megabits_per_second(40));
  bbr.on_ack(a);
  const auto before = bbr.cwnd_bytes();
  bbr.on_loss(loss_at(t + 10_ms, 5, t + 5_ms));
  EXPECT_LT(bbr.cwnd_bytes(), before);
}

TEST(BbrTest, V2LiteExitsStartupOnLoss) {
  Bbr bbr({.flavor = BbrFlavor::kV2Lite});
  ASSERT_EQ(bbr.state(), Bbr::State::kStartup);
  bbr.on_loss(loss_at(Time::zero() + 50_ms, 3, Time::zero() + 45_ms));
  // Startup is now marked full; the next ACK moves the state machine on.
  Time t = Time::zero() + 90_ms;
  bbr.on_packet_sent(t, 1, 1500, 0);
  bbr.on_ack(bbr_ack(t, 1500, 1, DataRate::megabits_per_second(40)));
  EXPECT_NE(bbr.state(), Bbr::State::kStartup);
}

TEST(BbrTest, ProbeRttEntersAfterWindowExpiry) {
  Bbr::Config cfg;
  cfg.min_rtt_window = 1_s;  // shorten for the test
  Bbr bbr(cfg);
  Time t = Time::zero();
  std::uint64_t pn = 0;
  const auto bw = DataRate::megabits_per_second(40);
  bool seen_probe_rtt = false;
  for (int i = 0; i < 100; ++i) {
    t += 40_ms;
    bbr.on_packet_sent(t, ++pn, 1500, 0);
    bbr.on_ack(bbr_ack(t, 1500, pn, bw));
    if (bbr.state() == Bbr::State::kProbeRtt) {
      seen_probe_rtt = true;
      EXPECT_EQ(bbr.cwnd_bytes(), 4 * kMaxDatagramSize);
      break;
    }
  }
  EXPECT_TRUE(seen_probe_rtt);
}

TEST(BbrTest, ProbeBwCyclesGains) {
  Bbr bbr;
  Time t = Time::zero();
  std::uint64_t pn = 0;
  const auto bw = DataRate::megabits_per_second(40);
  double max_rate = 0.0, min_rate = 1e18;
  for (int i = 0; i < 60; ++i) {
    t += 40_ms;
    bbr.on_packet_sent(t, ++pn, 1500, 0);
    bbr.on_ack(bbr_ack(t, 1500, pn, bw));
    if (bbr.state() == Bbr::State::kProbeBw) {
      max_rate = std::max(max_rate, bbr.pacing_rate().mbps());
      min_rate = std::min(min_rate, bbr.pacing_rate().mbps());
    }
  }
  // The 1.25 and 0.75 phases must both have been visited.
  EXPECT_GT(max_rate, 40.0 * 1.2);
  EXPECT_LT(min_rate, 40.0 * 0.8);
}

// ---------------------------------------------------------------- factory

TEST(Factory, BuildsEachAlgorithm) {
  EXPECT_STREQ(make_controller({.algorithm = CcAlgorithm::kNewReno})->name(),
               "newreno");
  EXPECT_STREQ(make_controller({.algorithm = CcAlgorithm::kCubic})->name(),
               "cubic");
  EXPECT_STREQ(make_controller({.algorithm = CcAlgorithm::kBbr})->name(),
               "bbr");
}

TEST(Factory, InitialWindowPerRfc9002) {
  auto cc = make_controller({});
  EXPECT_EQ(cc->cwnd_bytes(), kInitialWindow);
}

}  // namespace
}  // namespace quicsteps::cc
