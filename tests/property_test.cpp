// Property-based suites: randomized traffic through every qdisc must
// satisfy conservation and ordering invariants; pacers must satisfy exact
// spacing algebra across a parameter sweep; CUBIC must match RFC 9438
// arithmetic.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "cc/cubic.hpp"
#include "kernel/os_model.hpp"
#include "kernel/qdisc_etf.hpp"
#include "kernel/qdisc_fifo.hpp"
#include "kernel/qdisc_fq.hpp"
#include "kernel/qdisc_fq_codel.hpp"
#include "kernel/qdisc_netem.hpp"
#include "kernel/qdisc_tbf.hpp"
#include "pacing/interval_pacer.hpp"
#include "pacing/leaky_bucket_pacer.hpp"

namespace quicsteps {
namespace {

using namespace quicsteps::sim::literals;
using net::DataRate;
using net::Packet;
using sim::Duration;
using sim::EventLoop;
using sim::Time;

// ------------------------------------------------- qdisc invariants

enum class QdiscUnderTest { kFifo, kFq, kEtf, kTbf, kNetem, kFqCodel };

const char* name_of(QdiscUnderTest q) {
  switch (q) {
    case QdiscUnderTest::kFifo: return "fifo";
    case QdiscUnderTest::kFq: return "fq";
    case QdiscUnderTest::kEtf: return "etf";
    case QdiscUnderTest::kTbf: return "tbf";
    case QdiscUnderTest::kNetem: return "netem";
    case QdiscUnderTest::kFqCodel: return "fq_codel";
  }
  return "?";
}

struct QdiscProperty {
  QdiscUnderTest qdisc;
  std::uint64_t seed;
};

class QdiscInvariants : public ::testing::TestWithParam<QdiscProperty> {
 protected:
  /// Packets waiting for their arrival event; the event's payload is the
  /// packet's index.
  struct Arrivals {
    kernel::Qdisc* qdisc;
    std::vector<Packet> packets;
    static void arrive(void* self, std::uint32_t i) {
      auto* a = static_cast<Arrivals*>(self);
      a->qdisc->deliver(std::move(a->packets[i]));
    }
  };

  /// Drives `count` randomly timed packets (monotone txtimes for the
  /// timestamp-honoring qdiscs) and returns (delivered, counters).
  void run_random_traffic(kernel::Qdisc& qdisc, net::CollectorSink& sink,
                          EventLoop& loop, sim::Rng& rng, int count,
                          bool timestamps) {
    Arrivals arrivals{&qdisc, std::vector<Packet>(
                                  static_cast<std::size_t>(count))};
    Time cursor;
    Time txtime_cursor;
    for (int i = 0; i < count; ++i) {
      cursor += rng.exponential_duration(200_us, 5_ms);
      // txtimes march forward from arrival (never in the past at enqueue).
      txtime_cursor =
          sim::max(txtime_cursor, cursor) +
          rng.uniform_duration(Duration::zero(), 500_us);
      Packet& pkt = arrivals.packets[static_cast<std::size_t>(i)];
      pkt.id = static_cast<std::uint64_t>(i);
      pkt.flow = 1;
      pkt.size_bytes = 1500;
      pkt.has_txtime = timestamps;
      pkt.txtime = txtime_cursor;
      loop.schedule_at(cursor, sim::EventClass::kGeneral, &Arrivals::arrive,
                       &arrivals, static_cast<std::uint32_t>(i));
    }
    loop.run();
    (void)sink;
  }
};

TEST_P(QdiscInvariants, ConservationAndOrder) {
  const auto param = GetParam();
  EventLoop loop;
  sim::Rng rng(param.seed);
  kernel::OsModel os({}, rng.fork(1));
  net::CollectorSink sink;
  net::PacketSlab slab;

  std::unique_ptr<kernel::Qdisc> qdisc;
  bool timestamps = false;
  switch (param.qdisc) {
    case QdiscUnderTest::kFifo:
      qdisc = std::make_unique<kernel::FifoQdisc>(loop, slab, &sink);
      break;
    case QdiscUnderTest::kFq:
      qdisc = std::make_unique<kernel::FqQdisc>(
          loop, slab, kernel::FqQdisc::Config{}, os, &sink);
      timestamps = true;
      break;
    case QdiscUnderTest::kEtf:
      qdisc = std::make_unique<kernel::EtfQdisc>(
          loop, slab, kernel::EtfQdisc::Config{}, os, &sink);
      timestamps = true;
      break;
    case QdiscUnderTest::kTbf:
      qdisc = std::make_unique<kernel::TbfQdisc>(
          loop, slab,
          kernel::TbfQdisc::Config{
              .rate = DataRate::megabits_per_second(30),
              .burst_bytes = 4 * 1500,
              .limit_bytes = 40 * 1500},
          &sink);
      break;
    case QdiscUnderTest::kNetem:
      qdisc = std::make_unique<kernel::NetemQdisc>(
          loop, slab, kernel::NetemQdisc::Config{.delay = 7_ms}, rng.fork(2),
          &sink);
      break;
    case QdiscUnderTest::kFqCodel:
      qdisc = std::make_unique<kernel::FqCodelQdisc>(
          loop, slab,
          kernel::FqCodelQdisc::Config{
              .drain_rate = DataRate::megabits_per_second(30)},
          &sink);
      break;
  }

  constexpr int kCount = 600;
  run_random_traffic(*qdisc, sink, loop, rng, kCount, timestamps);

  // Conservation: every packet is delivered or counted as a drop, and the
  // queue drains completely once the event loop runs dry.
  const auto& counters = qdisc->counters();
  EXPECT_EQ(counters.packets_in, kCount) << name_of(param.qdisc);
  EXPECT_EQ(counters.packets_out + counters.packets_dropped, kCount)
      << name_of(param.qdisc);
  EXPECT_EQ(counters.packets_queued(), 0) << name_of(param.qdisc);
  EXPECT_EQ(static_cast<std::int64_t>(sink.packets().size()),
            counters.packets_out);

  // Same-flow ordering: none of the modelled qdiscs may reorder a single
  // flow when txtimes are monotone (netem has zero jitter here).
  for (std::size_t i = 1; i < sink.packets().size(); ++i) {
    EXPECT_LT(sink.packets()[i - 1].id, sink.packets()[i].id)
        << name_of(param.qdisc) << " reordered at position " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllQdiscs, QdiscInvariants,
    ::testing::Values(
        QdiscProperty{QdiscUnderTest::kFifo, 1},
        QdiscProperty{QdiscUnderTest::kFifo, 2},
        QdiscProperty{QdiscUnderTest::kFq, 3},
        QdiscProperty{QdiscUnderTest::kFq, 4},
        QdiscProperty{QdiscUnderTest::kEtf, 5},
        QdiscProperty{QdiscUnderTest::kEtf, 6},
        QdiscProperty{QdiscUnderTest::kTbf, 7},
        QdiscProperty{QdiscUnderTest::kTbf, 8},
        QdiscProperty{QdiscUnderTest::kNetem, 9},
        QdiscProperty{QdiscUnderTest::kFqCodel, 10}),
    [](const auto& info) {
      return std::string(name_of(info.param.qdisc)) + "_seed" +
             std::to_string(info.param.seed);
    });

// --------------------------------------------------- pacer algebra sweeps

struct PacerSweep {
  std::int64_t rate_mbps;
  std::int64_t packet_bytes;
};

class IntervalPacerSweep : public ::testing::TestWithParam<PacerSweep> {};

TEST_P(IntervalPacerSweep, SpacingIsExactlySizeOverRate) {
  const auto param = GetParam();
  const auto rate = DataRate::megabits_per_second(param.rate_mbps);
  pacing::IntervalPacer pacer(Duration::seconds(1));  // no clamp effect
  Time t = Time::zero() + 1_ms;
  pacer.on_packet_sent(t, param.packet_bytes, rate);
  for (int i = 0; i < 50; ++i) {
    const Time next = pacer.earliest_send_time(t, param.packet_bytes, rate);
    const double expected_us =
        static_cast<double>(param.packet_bytes) * 8.0 /
        static_cast<double>(param.rate_mbps);
    EXPECT_NEAR((next - t).to_micros(), expected_us, 0.01);
    pacer.on_packet_sent(next, param.packet_bytes, rate);
    t = next;
  }
}

INSTANTIATE_TEST_SUITE_P(
    RatesAndSizes, IntervalPacerSweep,
    ::testing::Values(PacerSweep{5, 1500}, PacerSweep{40, 1500},
                      PacerSweep{40, 1200}, PacerSweep{100, 1500},
                      PacerSweep{1000, 1500}, PacerSweep{40, 300}),
    [](const auto& info) {
      return std::to_string(info.param.rate_mbps) + "mbit_" +
             std::to_string(info.param.packet_bytes) + "B";
    });

class BucketPacerSweep : public ::testing::TestWithParam<PacerSweep> {};

TEST_P(BucketPacerSweep, LongRunThroughputEqualsRate) {
  const auto param = GetParam();
  const auto rate = DataRate::megabits_per_second(param.rate_mbps);
  pacing::LeakyBucketPacer pacer(8 * param.packet_bytes);
  Time t = Time::zero();
  std::int64_t sent_bytes = 0;
  const int packets = 2000;
  for (int i = 0; i < packets; ++i) {
    const Time next = pacer.earliest_send_time(t, param.packet_bytes, rate);
    pacer.on_packet_sent(next, param.packet_bytes, rate);
    sent_bytes += param.packet_bytes;
    t = next;
  }
  // Aside from the initial bucket burst, long-run throughput must match
  // the configured rate within 1%.
  const double measured_bps =
      static_cast<double>(sent_bytes - 8 * param.packet_bytes) * 8.0 /
      (t - Time::zero()).to_seconds();
  EXPECT_NEAR(measured_bps / 1e6, static_cast<double>(param.rate_mbps),
              0.01 * static_cast<double>(param.rate_mbps));
}

INSTANTIATE_TEST_SUITE_P(
    RatesAndSizes, BucketPacerSweep,
    ::testing::Values(PacerSweep{5, 1500}, PacerSweep{40, 1500},
                      PacerSweep{100, 1500}, PacerSweep{40, 600}),
    [](const auto& info) {
      return std::to_string(info.param.rate_mbps) + "mbit_" +
             std::to_string(info.param.packet_bytes) + "B";
    });

// -------------------------------------------------- CUBIC RFC arithmetic

TEST(CubicRfc, KMatchesClosedForm) {
  // After a congestion event at window W, K = cbrt(W*(1-beta)/C) seconds
  // (RFC 9438 §4.2, in MSS units).
  cc::CcConfig cfg;
  cfg.hystart = false;
  cc::Cubic cubic(cfg);

  cc::AckSample grow;
  grow.now = Time::zero() + 40_ms;
  grow.acked_bytes = 100 * cc::kMaxDatagramSize;
  grow.largest_acked_sent_time = Time::zero() + 1_ms;
  grow.latest_rtt = grow.smoothed_rtt = grow.min_rtt = 40_ms;
  grow.bytes_in_flight = 1 << 24;
  cubic.on_ack(grow);
  const double w_mss = static_cast<double>(cubic.cwnd_bytes()) /
                       static_cast<double>(cc::kMaxDatagramSize);

  cc::LossSample loss;
  loss.now = Time::zero() + 100_ms;
  loss.lost_packets = 3;
  loss.lost_bytes = 3 * cc::kMaxDatagramSize;
  loss.largest_lost_sent_time = Time::zero() + 90_ms;
  cubic.on_loss(loss);

  // Drive one CA ack to start the epoch, then read K from debug state.
  cc::AckSample ca = grow;
  ca.now = Time::zero() + 200_ms;
  ca.acked_bytes = cc::kMaxDatagramSize;
  ca.largest_acked_sent_time = Time::zero() + 150_ms;
  cubic.on_ack(ca);

  const double expected_k = std::cbrt(w_mss * 0.3 / 0.4);
  const std::string state = cubic.debug_state();
  const auto pos = state.find("k=");
  ASSERT_NE(pos, std::string::npos);
  const double actual_k = std::stod(state.substr(pos + 2));
  EXPECT_NEAR(actual_k, expected_k, 0.05 * expected_k);
}

TEST(CubicRfc, BetaReductionIsExact) {
  cc::CcConfig cfg;
  cfg.hystart = false;
  cc::Cubic cubic(cfg);
  const auto before = cubic.cwnd_bytes();
  cc::LossSample loss;
  loss.now = Time::zero() + 50_ms;
  loss.lost_packets = 1;
  loss.lost_bytes = cc::kMaxDatagramSize;
  loss.largest_lost_sent_time = Time::zero() + 45_ms;
  cubic.on_loss(loss);
  EXPECT_EQ(cubic.cwnd_bytes(),
            static_cast<std::int64_t>(static_cast<double>(before) * 0.7));
}

}  // namespace
}  // namespace quicsteps
