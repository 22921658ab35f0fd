// Framework integration and property tests: topology wiring, end-to-end
// experiments for every stack, aggregation, report rendering, and
// parameterized invariants (packet conservation, goodput ceilings,
// determinism) swept across stacks and seeds.
#include <gtest/gtest.h>

#include "core/quicsteps.hpp"

namespace quicsteps::framework {
namespace {

using namespace quicsteps::sim::literals;
using cc::CcAlgorithm;

ExperimentConfig quick_config(StackKind stack,
                              CcAlgorithm cca = CcAlgorithm::kCubic) {
  ExperimentConfig config;
  config.label = to_string(stack);
  config.stack = stack;
  config.cca = cca;
  config.payload_bytes = 2ll * 1024 * 1024;  // keep tests fast
  config.repetitions = 1;
  return config;
}

/// The paper's Figure 1 path for one sender, wired by hand the way the
/// ablation benches do it: host OS, shared path, sender egress, then the
/// endpoints registered under flow 1.
struct OneSenderPath {
  OneSenderPath(sim::EventLoop& loop, const TopologyConfig& config,
                sim::Rng& rng)
      : os(config.server_os, rng.fork(1)),
        path(loop, config, rng, os),
        sender(loop, path.slab(), config, os, path.wire_ingress()) {
    path.register_flow(1, &client, &server);
    path.finish_flow_registration();
  }

  net::CollectorSink client;
  net::CollectorSink server;
  kernel::OsModel os;
  BottleneckPath path;
  SenderPath sender;
};

TEST(Topology, WiresDataPathThroughTap) {
  sim::EventLoop loop;
  sim::Rng rng(3);
  OneSenderPath topo(loop, {}, rng);
  net::Packet pkt;
  pkt.flow = 1;
  pkt.size_bytes = 1500;
  topo.sender.egress()->deliver(pkt);
  loop.run();
  EXPECT_EQ(topo.client.packets().size(), 1u);
  ASSERT_EQ(topo.path.tap().capture().size(), 1u);
  // One-way latency ~20 ms plus serialization.
  EXPECT_GE(loop.now(), sim::Time::zero() + 20_ms);
  EXPECT_LT(loop.now(), sim::Time::zero() + 25_ms);
}

TEST(Topology, AckPathHasNoBottleneck) {
  sim::EventLoop loop;
  sim::Rng rng(3);
  OneSenderPath topo(loop, {}, rng);
  for (int i = 0; i < 100; ++i) {
    net::Packet ack;
    ack.flow = 1;
    ack.kind = net::PacketKind::kQuicAck;
    ack.size_bytes = 60;
    topo.path.ack_ingress()->deliver(ack);
  }
  loop.run();
  EXPECT_EQ(topo.server.packets().size(), 100u);
}

TEST(Topology, QdiscSelection) {
  sim::EventLoop loop;
  sim::Rng rng(3);
  TopologyConfig cfg;
  cfg.server_qdisc = QdiscKind::kFq;
  OneSenderPath topo(loop, cfg, rng);
  EXPECT_EQ(topo.sender.qdisc().name(), "fq");
}

TEST(Runner, RecordsCwndTraceWhenRequested) {
  auto config = quick_config(StackKind::kQuiche);
  config.trace = true;
  auto result = Runner::run_once(config, 1);
  EXPECT_TRUE(result.completed);
  ASSERT_NE(result.trace, nullptr);
  EXPECT_GT(result.trace->recovery.size(), 100u);
}

TEST(Aggregation, PoolsAcrossRepetitions) {
  auto config = quick_config(StackKind::kQuiche);
  config.repetitions = 2;
  auto runs = Runner::run_all(config);
  auto agg = aggregate("quiche", runs);
  EXPECT_EQ(agg.repetitions, 2);
  EXPECT_EQ(agg.completed, 2);
  EXPECT_EQ(static_cast<std::int64_t>(agg.pooled_gaps_ms.size()),
            static_cast<std::int64_t>(runs[0].gaps.gaps_ms.size()) +
                static_cast<std::int64_t>(runs[1].gaps.gaps_ms.size()));
  EXPECT_GT(agg.goodput_mbps.mean, 0.0);
}

TEST(Reports, RenderWithoutCrashing) {
  auto config = quick_config(StackKind::kQuiche);
  auto agg = aggregate("quiche", Runner::run_all(config));
  EXPECT_NE(render_goodput_table({agg}, "t").find("quiche"),
            std::string::npos);
  EXPECT_NE(render_gap_figure({agg}, "t").find("back-to-back"),
            std::string::npos);
  EXPECT_NE(render_train_figure({agg}, "t").find("<=5 pkts"),
            std::string::npos);
  EXPECT_NE(render_precision_table({agg}, "t").find("Precision"),
            std::string::npos);
}

TEST(Reports, CwndTraceRendering) {
  auto config = quick_config(StackKind::kQuiche);
  config.trace = true;
  auto result = Runner::run_once(config, 1);
  auto out = render_cwnd_trace(result, "cwnd");
  EXPECT_NE(out.find("cwnd max"), std::string::npos);
}

// --------------------------------------------------- parallel execution

TEST(ParallelRunner, JobsResolutionOrder) {
  EXPECT_GE(ParallelRunner().jobs(), 1);   // env / hardware fallback
  EXPECT_EQ(ParallelRunner(1).jobs(), 1);  // explicit wins
  EXPECT_EQ(ParallelRunner(4).jobs(), 4);
}

TEST(ParallelRunner, GridIsBitIdenticalToSerial) {
  // The whole point of the worker pool: fanning a (config, seed) grid out
  // across threads must not change a single bit of any result. Compare a
  // 3-stack x 2-repetition grid against the serial reference loop.
  std::vector<ExperimentConfig> grid;
  for (auto stack : {StackKind::kQuicheSf, StackKind::kPicoquic,
                     StackKind::kTcpTls}) {
    auto config = quick_config(stack);
    config.repetitions = 2;
    config.seed = 10 + grid.size();
    grid.push_back(config);
  }

  auto parallel = ParallelRunner(4).run_grid(grid);

  ASSERT_EQ(parallel.size(), grid.size());
  for (std::size_t c = 0; c < grid.size(); ++c) {
    ASSERT_EQ(parallel[c].size(),
              static_cast<std::size_t>(grid[c].repetitions));
    for (int rep = 0; rep < grid[c].repetitions; ++rep) {
      const auto seed = grid[c].seed + static_cast<std::uint64_t>(rep);
      const auto serial = Runner::run_once(grid[c], seed);
      const auto& par = parallel[c][static_cast<std::size_t>(rep)];
      SCOPED_TRACE(grid[c].label + " rep " + std::to_string(rep));
      EXPECT_EQ(par.completed, serial.completed);
      EXPECT_EQ(par.packets_sent, serial.packets_sent);
      EXPECT_EQ(par.dropped_packets, serial.dropped_packets);
      EXPECT_EQ(par.packets_declared_lost, serial.packets_declared_lost);
      EXPECT_EQ(par.wire_data_packets, serial.wire_data_packets);
      EXPECT_EQ(par.wire_hash, serial.wire_hash);
      EXPECT_DOUBLE_EQ(par.goodput.goodput.mbps(),
                       serial.goodput.goodput.mbps());
      EXPECT_EQ(par.gaps.gaps_ms, serial.gaps.gaps_ms);
      EXPECT_EQ(par.trains.packets_by_length, serial.trains.packets_by_length);
      EXPECT_DOUBLE_EQ(par.precision.precision_ms,
                       serial.precision.precision_ms);
    }
  }
}

TEST(ParallelRunner, RunAllMatchesRunnerInterface) {
  auto config = quick_config(StackKind::kQuiche);
  config.repetitions = 2;
  auto pooled = ParallelRunner(2).run_all(config);
  auto reference = Runner::run_all(config);
  ASSERT_EQ(pooled.size(), reference.size());
  for (std::size_t i = 0; i < pooled.size(); ++i) {
    EXPECT_EQ(pooled[i].packets_sent, reference[i].packets_sent);
    EXPECT_EQ(pooled[i].gaps.gaps_ms, reference[i].gaps.gaps_ms);
  }
}

// ------------------------------------------------------ property sweeps

struct SweepParam {
  StackKind stack;
  CcAlgorithm cca;
  std::uint64_t seed;
};

std::string param_name(const ::testing::TestParamInfo<SweepParam>& info) {
  std::string name = to_string(info.param.stack);
  name += "_";
  name += cc::to_string(info.param.cca);
  name += "_seed";
  name += std::to_string(info.param.seed);
  for (auto& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

class ExperimentSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(ExperimentSweep, InvariantsHold) {
  const auto& param = GetParam();
  auto config = quick_config(param.stack, param.cca);
  auto result = Runner::run_once(config, param.seed);

  // 1. The transfer completes within the generous deadline.
  EXPECT_TRUE(result.completed);

  // 2. Goodput never exceeds the payload share of the bottleneck rate.
  EXPECT_LE(result.goodput.goodput.mbps(), 40.0 * 1402.0 / 1500.0 + 0.1);
  EXPECT_GT(result.goodput.goodput.mbps(), 1.0);

  // 3. Wire conservation: every data packet the sender emitted reached the
  //    tap (the server-side qdisc path never drops in these configs).
  EXPECT_EQ(result.wire_data_packets, result.packets_sent);

  // 4. Retransmissions cover declared losses (spurious PTO probes may add
  //    a couple on top).
  EXPECT_GE(result.retransmissions, 0);
  EXPECT_GE(result.packets_sent, result.packets_declared_lost);

  // 5. Gap samples pair up with wire packets.
  EXPECT_EQ(static_cast<std::int64_t>(result.gaps.gaps_ms.size()),
            result.wire_data_packets - 1);

  // 6. Train accounting covers every wire packet exactly once.
  EXPECT_EQ(result.trains.total_packets, result.wire_data_packets);
  std::int64_t by_length = 0;
  for (auto& [len, packets] : result.trains.packets_by_length) {
    by_length += packets;
  }
  EXPECT_EQ(by_length, result.wire_data_packets);
}

TEST_P(ExperimentSweep, DeterministicForSameSeed) {
  const auto& param = GetParam();
  auto config = quick_config(param.stack, param.cca);
  auto a = Runner::run_once(config, param.seed);
  auto b = Runner::run_once(config, param.seed);
  EXPECT_EQ(a.packets_sent, b.packets_sent);
  EXPECT_EQ(a.dropped_packets, b.dropped_packets);
  EXPECT_DOUBLE_EQ(a.goodput.goodput.mbps(), b.goodput.goodput.mbps());
  EXPECT_EQ(a.gaps.gaps_ms, b.gaps.gaps_ms);
}

// A static table rather than Values(...) temporaries: gtest prints an
// unprintable param's raw bytes, padding included, into the test name, and
// temporaries carry stack garbage in that padding, so the ctest names
// changed from one execution to the next. Static storage zeroes the padding.
constexpr SweepParam kSweepParams[] = {
    {StackKind::kQuiche, CcAlgorithm::kCubic, 1},
    {StackKind::kQuiche, CcAlgorithm::kBbr, 2},
    {StackKind::kQuicheSf, CcAlgorithm::kCubic, 3},
    {StackKind::kPicoquic, CcAlgorithm::kCubic, 4},
    {StackKind::kPicoquic, CcAlgorithm::kBbr, 5},
    {StackKind::kPicoquic, CcAlgorithm::kNewReno, 6},
    {StackKind::kNgtcp2, CcAlgorithm::kCubic, 7},
    {StackKind::kTcpTls, CcAlgorithm::kCubic, 8},
    {StackKind::kIdealQuic, CcAlgorithm::kCubic, 9}};

INSTANTIATE_TEST_SUITE_P(AllStacks, ExperimentSweep,
                         ::testing::ValuesIn(kSweepParams), param_name);

// Qdisc sweep: the transfer must complete under every server qdisc.
class QdiscSweep : public ::testing::TestWithParam<QdiscKind> {};

TEST_P(QdiscSweep, QuicheCompletesUnderEveryQdisc) {
  auto config = quick_config(StackKind::kQuicheSf);
  config.topology.server_qdisc = GetParam();
  auto result = Runner::run_once(config, 11);
  EXPECT_TRUE(result.completed) << to_string(GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllQdiscs, QdiscSweep,
                         ::testing::Values(QdiscKind::kFifo,
                                           QdiscKind::kFqCodel,
                                           QdiscKind::kFq, QdiscKind::kEtf,
                                           QdiscKind::kEtfOffload),
                         [](const auto& info) {
                           std::string name = to_string(info.param);
                           for (auto& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c)))
                               c = '_';
                           }
                           return name;
                         });

// Signature behaviors the profiles exist to reproduce.

TEST(Signatures, FqPacesQuicheTrains) {
  // quiche over FQ: txtime honored -> long trains become rare compared to
  // the default qdisc (paper Fig. 5).
  auto base = quick_config(StackKind::kQuicheSf);
  auto fq = base;
  fq.topology.server_qdisc = QdiscKind::kFq;
  auto r_base = Runner::run_once(base, 21);
  auto r_fq = Runner::run_once(fq, 21);
  EXPECT_GT(r_fq.trains.fraction_in_trains_up_to(5),
            r_base.trains.fraction_in_trains_up_to(5));
}

TEST(Signatures, PicoquicBbrPacesNearPerfectly) {
  // picoquic+BBR: paper's best user-space pacing — almost everything in
  // short trains without any kernel help.
  auto config = quick_config(StackKind::kPicoquic, CcAlgorithm::kBbr);
  auto result = Runner::run_once(config, 31);
  EXPECT_GT(result.trains.fraction_in_trains_up_to(3), 0.95);
}

TEST(Signatures, PicoquicCubicShowsBucketBursts) {
  auto config = quick_config(StackKind::kPicoquic, CcAlgorithm::kCubic);
  auto result = Runner::run_once(config, 41);
  // A visible share of packets rides in 16-18 packet trains.
  double burst_share = 0.0;
  for (auto& [len, packets] : result.trains.packets_by_length) {
    if (len >= 14 && len <= 20) {
      burst_share += static_cast<double>(packets);
    }
  }
  burst_share /= static_cast<double>(result.trains.total_packets);
  EXPECT_GT(burst_share, 0.15);
}

TEST(Signatures, Ngtcp2GoodputIsLowAndStable) {
  auto config = quick_config(StackKind::kNgtcp2);
  config.payload_bytes = 4ll * 1024 * 1024;
  auto a = Runner::run_once(config, 51);
  auto b = Runner::run_once(config, 52);
  EXPECT_LT(a.goodput.goodput.mbps(), 20.0);
  EXPECT_NEAR(a.goodput.goodput.mbps(), b.goodput.goodput.mbps(), 0.2);
}

TEST(Signatures, QuicheRollbackOscillatesUnderFq) {
  // quiche (rollback enabled) + FQ: small per-cycle losses stay under the
  // spurious threshold -> perpetual rollbacks (paper Fig. 5 / Fig. 7).
  auto config = quick_config(StackKind::kQuiche);
  config.topology.server_qdisc = QdiscKind::kFq;
  config.payload_bytes = 6ll * 1024 * 1024;
  auto result = Runner::run_once(config, 61);
  EXPECT_GE(result.cc_rollbacks, 2);
  // SF patch: same scenario, no rollbacks.
  auto sf = config;
  sf.stack = StackKind::kQuicheSf;
  auto sf_result = Runner::run_once(sf, 61);
  EXPECT_EQ(sf_result.cc_rollbacks, 0);
}

}  // namespace
}  // namespace quicsteps::framework
