// Correctness-tooling tests: audit-failure injection (a non-conserving
// qdisc, a backwards timestamp stream), the determinism hasher, sorted
// counter emission, and the serial == parallel wire-hash gate.
#include <iterator>
#include <sstream>

#include <gtest/gtest.h>

#include "core/quicsteps.hpp"

namespace quicsteps {
namespace {

using framework::ExperimentConfig;
using framework::ParallelRunner;
using framework::Runner;
using framework::StackKind;

/// Redirects audit failures into a list for the lifetime of the test (the
/// default handler aborts the process, which is the right behavior
/// everywhere except here).
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

// ----------------------------------------------------------- audit spine

TEST_F(AuditCaptureTest, AuditFailReportsThroughInstalledHandler) {
  check::audit_fail("f.cpp", 7, "x == y", "books off");
  ASSERT_EQ(failures_.size(), 1u);
  EXPECT_NE(failures_[0].find("books off"), std::string::npos);
  EXPECT_NE(failures_[0].find("x == y"), std::string::npos);
  EXPECT_NE(failures_[0].find("f.cpp:7"), std::string::npos);
}

TEST_F(AuditCaptureTest, MonotonicityAuditorAcceptsOrderedStream) {
  check::MonotonicityAuditor monotone("test stream");
  EXPECT_TRUE(monotone.observe(0));
  EXPECT_TRUE(monotone.observe(5));
  EXPECT_TRUE(monotone.observe(5));  // equal timestamps are legal
  EXPECT_TRUE(monotone.observe(100));
  EXPECT_TRUE(failures_.empty());
}

TEST_F(AuditCaptureTest, BackwardsEventTripsMonotonicityAudit) {
  check::MonotonicityAuditor monotone("event execution time");
  monotone.observe(1000);
  EXPECT_FALSE(monotone.observe(999));  // scheduled into the past
  ASSERT_EQ(failures_.size(), 1u);
  EXPECT_NE(failures_[0].find("went backwards"), std::string::npos);
  EXPECT_NE(failures_[0].find("event execution time"), std::string::npos);
}

// ------------------------------------------------- conservation auditor

/// Deliberately non-conserving qdisc: every packet is accepted and then
/// silently eaten — neither forwarded, nor dropped, nor queued.
class BlackHoleQdisc final : public kernel::Qdisc {
 public:
  BlackHoleQdisc(sim::EventLoop& loop, net::PacketSlab& slab,
                 net::PacketSink* downstream)
      : Qdisc(loop, slab, "blackhole", downstream) {}
  void deliver_ref(net::PacketSlab& slab, net::PacketSlab::Ref ref) override {
    note_arrival(slab, ref);
  }
};

net::Packet test_packet(std::int64_t bytes = 1500) {
  net::Packet pkt;
  pkt.flow = 1;
  pkt.size_bytes = bytes;
  return pkt;
}

TEST_F(AuditCaptureTest, NonConservingQdiscTripsConservationAuditor) {
  sim::EventLoop loop;
  net::PacketSlab slab;
  BlackHoleQdisc blackhole(loop, slab, nullptr);
  check::ConservationAuditor auditor;
  auditor.add_stage("blackhole", blackhole.counters(),
                    [] { return std::int64_t{0}; });  // claims empty queue

  for (int i = 0; i < 3; ++i) blackhole.deliver(test_packet());

  const auto violations = auditor.audit();
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("blackhole"), std::string::npos);
  EXPECT_NE(violations[0].find("disagrees with live queue depth"),
            std::string::npos);
  // audit() funnels every violation through the installed handler too.
  EXPECT_EQ(failures_.size(), violations.size());
}

TEST_F(AuditCaptureTest, LossOnSynchronousEdgeTripsConservationAuditor) {
  net::Counters upstream;
  net::Counters downstream;
  for (int i = 0; i < 5; ++i) {
    upstream.count_in(1500);
    upstream.count_out(1500);
  }
  // Downstream only booked 3 of the 5 hand-offs.
  for (int i = 0; i < 3; ++i) downstream.count_in(1500);

  check::ConservationAuditor auditor;
  const auto up = auditor.add_stage("tbf", upstream);
  const auto down = auditor.add_stage("netem", downstream);
  auditor.add_edge(up, down);

  const auto violations = auditor.violations();
  ASSERT_EQ(violations.size(), 2u);  // packets and bytes both off
  EXPECT_NE(violations[0].find("tbf -> netem"), std::string::npos);
  EXPECT_NE(violations[0].find("packets lost"), std::string::npos);
  EXPECT_NE(violations[1].find("bytes lost"), std::string::npos);
}

TEST_F(AuditCaptureTest, BalancedBooksProduceNoViolations) {
  net::Counters c;
  c.count_in(1500);
  c.count_in(1500);
  c.count_out(1500);
  c.count_drop(1500);
  check::ConservationAuditor auditor;
  auditor.add_stage("clean", c, [] { return std::int64_t{0}; });
  EXPECT_TRUE(auditor.violations().empty());
  EXPECT_TRUE(failures_.empty());
}

TEST_F(AuditCaptureTest, ForwardingUncountedPacketTripsQdiscAudit) {
  if constexpr (!check::kAuditEnabled) {
    GTEST_SKIP() << "built with -DQUICSTEPS_AUDIT=OFF";
  }
  // A qdisc that emits a packet it never booked in drives its implied
  // backlog negative; the QUICSTEPS_AUDIT() hook in Qdisc::forward fires
  // on the spot, without waiting for a post-run audit.
  class DuplicatingQdisc final : public kernel::Qdisc {
   public:
    DuplicatingQdisc(sim::EventLoop& loop, net::PacketSlab& slab)
        : Qdisc(loop, slab, "duper", nullptr) {}
    void deliver_ref(net::PacketSlab& slab,
                     net::PacketSlab::Ref ref) override {
      note_arrival(slab, ref);
      net::Packet copy = slab.at(ref);
      forward(ref);
      forward(slab.put(std::move(copy)));  // duplicate: one in, two out
    }
  };
  sim::EventLoop loop;
  net::PacketSlab slab;
  DuplicatingQdisc duper(loop, slab);
  duper.deliver(test_packet());
  ASSERT_EQ(failures_.size(), 1u);
  EXPECT_NE(failures_[0].find("never enqueued"), std::string::npos);
}

// ------------------------------------------------------- event loop hooks

TEST_F(AuditCaptureTest, EventLoopAuditsStaySilentOnLegalWorkloads) {
  sim::EventLoop loop;
  using namespace sim::literals;
  int ran = 0;
  const sim::DrainFn count = [](void* ctx, std::uint32_t) {
    ++*static_cast<int*>(ctx);
  };
  for (int i = 0; i < 100; ++i) {
    loop.schedule_after(sim::Duration::micros(i * 37 % 500),
                        sim::EventClass::kGeneral, count, &ran);
  }
  auto cancelled =
      loop.schedule_after(1_ms, sim::EventClass::kGeneral, count, &ran);
  cancelled.cancel();
  // Past-scheduled events clamp to now() — legal, must not trip audits.
  loop.schedule_at(sim::Time::zero() - sim::Duration::millis(1),
                   sim::EventClass::kGeneral, count, &ran);
  loop.run();
  EXPECT_EQ(ran, 101);
  EXPECT_TRUE(failures_.empty());
}

// ------------------------------------------------------------ hashing

TEST(DeterminismHasher, MatchesReferenceFnv1a) {
  // Independent FNV-1a reference over the same byte stream.
  const std::uint64_t values[] = {0u, 1u, 0xdeadbeefu, ~std::uint64_t{0}};
  std::uint64_t expected = 14695981039346656037ull;
  for (std::uint64_t v : values) {
    for (int i = 0; i < 8; ++i) {
      expected ^= (v >> (8 * i)) & 0xffu;
      expected *= 1099511628211ull;
    }
  }
  check::DeterminismHasher hasher;
  for (std::uint64_t v : values) hasher.add_u64(v);
  EXPECT_EQ(hasher.digest(), expected);
  EXPECT_EQ(hasher.count(), 4u);
  EXPECT_EQ(hasher.to_string().size(), 16u);
}

TEST(DeterminismHasher, OrderSensitive) {
  check::DeterminismHasher ab;
  ab.add_u64(1);
  ab.add_u64(2);
  check::DeterminismHasher ba;
  ba.add_u64(2);
  ba.add_u64(1);
  EXPECT_NE(ab.digest(), ba.digest());
}

// ------------------------------------------------- deterministic emission

TEST(CountersTable, EmitsSortedRegardlessOfRegistrationOrder) {
  net::Counters a;
  a.count_in(100);
  net::Counters b;
  b.count_in(200);
  net::Counters c;
  c.count_in(300);

  net::CountersTable forward;
  forward.add("alpha", a);
  forward.add("mid", b);
  forward.add("zeta", c);
  net::CountersTable reverse;
  reverse.add("zeta", c);
  reverse.add("mid", b);
  reverse.add("alpha", a);

  EXPECT_EQ(forward.to_string(), reverse.to_string());
  ASSERT_EQ(reverse.rows().size(), 3u);
  EXPECT_EQ(reverse.rows()[0].first, "alpha");
  EXPECT_EQ(reverse.rows()[2].first, "zeta");
  EXPECT_EQ(forward.to_string().find("alpha"), 0u);
}

// ------------------------------------------------------ determinism gate

ExperimentConfig hash_config(StackKind stack, std::uint64_t seed) {
  ExperimentConfig config;
  config.label = to_string(stack);
  config.stack = stack;
  config.payload_bytes = 1ll * 1024 * 1024;  // keep the grid fast
  config.repetitions = 1;
  config.seed = seed;
  return config;
}

TEST(DeterminismHash, SerialEqualsParallelAcrossStacksAndSeeds) {
  // The paper's figures are functions of departure timestamps, so this is
  // THE determinism gate: for every stack and >= 3 seeds, the parallel
  // worker pool must produce byte-for-byte the timestamp stream a serial
  // run produces — compressed to one FNV-1a digest per run.
  std::vector<ExperimentConfig> grid;
  for (auto stack : {StackKind::kQuiche, StackKind::kQuicheSf,
                     StackKind::kPicoquic, StackKind::kNgtcp2,
                     StackKind::kTcpTls, StackKind::kIdealQuic}) {
    for (std::uint64_t seed : {1ull, 7ull, 42ull}) {
      grid.push_back(hash_config(stack, seed));
    }
  }
  // Literal goldens, in grid order. Serial == parallel alone cannot catch
  // a change that moves both together (an RNG fork-order slip in the path
  // wiring, say); these pin the streams themselves. quiche and quiche+SF
  // agree at 1 MiB: no spurious-loss rollback happens that early.
  const std::uint64_t golden[] = {
      0x0fa51d96f3ee5b36ull, 0x755114417b94e539ull, 0x0948f4e90c9d0f30ull,
      0x0fa51d96f3ee5b36ull, 0x755114417b94e539ull, 0x0948f4e90c9d0f30ull,
      0x12f4e24ea6c9e855ull, 0x9bfa8c06dbd8c7e7ull, 0xb42651dbe06363e2ull,
      0xfddbd223e4f371f2ull, 0xe13b16fb7df9acecull, 0x8fba5469d01bc695ull,
      0x1ccb982528c7c632ull, 0xe7edb1fe9fbaf984ull, 0x755041b3f3633e81ull,
      0x563ee47643931475ull, 0x0d139079ff86dcbfull, 0xd92c29dd32a4035full,
  };
  ASSERT_EQ(std::size(golden), grid.size());

  const auto parallel = ParallelRunner(4).run_grid(grid);

  ASSERT_EQ(parallel.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    ASSERT_EQ(parallel[i].size(), 1u);
    const auto serial = Runner::run_once(grid[i], grid[i].seed);
    SCOPED_TRACE(grid[i].label + " seed " + std::to_string(grid[i].seed));
    EXPECT_EQ(serial.wire_hash, golden[i]);
    EXPECT_EQ(parallel[i][0].wire_hash, serial.wire_hash);
  }

  // Different seeds actually produce different timestamp streams — the
  // hash would be useless if it collapsed them.
  EXPECT_NE(parallel[0][0].wire_hash, parallel[1][0].wire_hash);
}

TEST(DeterminismHash, TracedRunsExportByteIdenticalSerialVsParallel) {
  if (!obs::kTraceEnabled) {
    GTEST_SKIP() << "built with -DQUICSTEPS_TRACE=OFF";
  }
  // Path tracing must not perturb the schedule (wire_hash unchanged by
  // --trace) and the exported artifacts themselves must be reproducible
  // bytes: the parallel worker pool and a serial run of the same
  // (config, seed) write identical path-qlog JSONL and CSV.
  for (std::uint64_t seed : {1ull, 7ull}) {
    auto config = hash_config(StackKind::kQuicheSf, seed);
    const auto untraced = Runner::run_once(config, seed);
    config.trace = true;
    const auto serial = Runner::run_once(config, seed);
    const auto parallel = ParallelRunner(4).run_all(config);
    SCOPED_TRACE("seed " + std::to_string(seed));
    ASSERT_EQ(parallel.size(), 1u);
    EXPECT_EQ(serial.wire_hash, untraced.wire_hash);
    EXPECT_EQ(serial.wire_hash, parallel[0].wire_hash);
    ASSERT_NE(serial.trace, nullptr);
    ASSERT_NE(parallel[0].trace, nullptr);
    std::ostringstream serial_qlog, parallel_qlog, serial_csv, parallel_csv;
    framework::write_path_qlog(serial_qlog, serial, config.label);
    framework::write_path_qlog(parallel_qlog, parallel[0], config.label);
    framework::write_path_trace_csv(serial_csv, serial);
    framework::write_path_trace_csv(parallel_csv, parallel[0]);
    EXPECT_GT(serial_qlog.str().size(), 1000u);
    EXPECT_EQ(serial_qlog.str(), parallel_qlog.str());
    EXPECT_EQ(serial_csv.str(), parallel_csv.str());
  }
}

TEST(DeterminismHash, RepeatedRunsPinTheSameDigest) {
  const auto config = hash_config(StackKind::kQuiche, 3);
  const auto a = Runner::run_once(config, 3);
  const auto b = Runner::run_once(config, 3);
  EXPECT_EQ(a.wire_hash, b.wire_hash);
}

}  // namespace
}  // namespace quicsteps
