// Tests for the impairment extensions: netem loss/reordering and GRO
// coalescing.
#include <gtest/gtest.h>

#include "framework/runner.hpp"
#include "kernel/qdisc_netem.hpp"
#include "kernel/udp_socket.hpp"

namespace quicsteps {
namespace {

using namespace quicsteps::sim::literals;
using net::Packet;
using sim::Duration;
using sim::EventLoop;
using sim::Time;

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
    loop.schedule_at(
        Time::zero() + Duration::micros(i * 100), sim::EventClass::kGeneral,
        [](void* q, std::uint32_t id) {
          Packet pkt;
          pkt.id = id;
          pkt.size_bytes = 1500;
          static_cast<kernel::NetemQdisc*>(q)->deliver(pkt);
        },
        &netem, static_cast<std::uint32_t>(i));
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
  net::CollectorSink delivered;
  kernel::UdpReceiver receiver(loop, slab, os, 1 << 20, &delivered, 500_us);
  for (int i = 0; i < 8; ++i) {
    Packet pkt;
    pkt.size_bytes = 1500;
    receiver.deliver(pkt);
  }
  loop.run();
  EXPECT_EQ(delivered.packets().size(), 8u);
  EXPECT_EQ(receiver.wakeups(), 1);  // one batch, one recvmsg
}

TEST(Gro, SeparatedArrivalsAreSeparateWakeups) {
  EventLoop loop;
  kernel::OsTimingConfig quiet;
  quiet.wakeup_latency_mean = Duration::zero();
  quiet.wakeup_latency_stddev = Duration::zero();
  kernel::OsModel os(quiet, sim::Rng(2));
  net::PacketSlab slab;
  net::CollectorSink delivered;
  kernel::UdpReceiver receiver(loop, slab, os, 1 << 20, &delivered, 500_us);
  for (int i = 0; i < 4; ++i) {
    loop.schedule_at(
        Time::zero() + Duration::millis(i * 10), sim::EventClass::kGeneral,
        [](void* rx, std::uint32_t) {
          Packet pkt;
          pkt.size_bytes = 1500;
          static_cast<kernel::UdpReceiver*>(rx)->deliver(pkt);
        },
        &receiver);
  }
  loop.run();
  EXPECT_EQ(delivered.packets().size(), 4u);
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
