// Unit tests for the kernel model: OS timing draws, user-space timers, GSO
// buffer construction, NIC expansion/LaunchTime, and the UDP socket.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "kernel/gso.hpp"
#include "kernel/nic.hpp"
#include "kernel/os_model.hpp"
#include "kernel/timer_service.hpp"
#include "kernel/udp_socket.hpp"
#include "net/wire_tap.hpp"
#include "sim/event_loop.hpp"

namespace quicsteps::kernel {
namespace {

using namespace quicsteps::sim::literals;
using net::CollectorSink;
using net::DataRate;
using net::Packet;
using sim::Duration;
using sim::EventLoop;
using sim::Time;

Packet make_packet(std::uint64_t id, std::int64_t size = 1500) {
  Packet p;
  p.id = id;
  p.size_bytes = size;
  return p;
}

/// make_gso_buffer takes the shared buffer the socket pools; tests build
/// one directly.
std::shared_ptr<std::vector<Packet>> share(std::vector<Packet> segs) {
  return std::make_shared<std::vector<Packet>>(std::move(segs));
}

OsTimingConfig quiet_os() {
  OsTimingConfig cfg;
  cfg.hrtimer_slack_mean = Duration::zero();
  cfg.hrtimer_slack_stddev = Duration::zero();
  cfg.softirq_delay_chance = 0.0;
  cfg.syscall_jitter_mean = Duration::zero();
  cfg.wakeup_latency_mean = Duration::zero();
  cfg.wakeup_latency_stddev = Duration::zero();
  return cfg;
}

TEST(OsModel, SyscallCostAtLeastBase) {
  OsModel os({}, sim::Rng(1));
  for (int i = 0; i < 100; ++i) {
    EXPECT_GE(os.draw_syscall_cost(), os.config().syscall_base);
  }
}

TEST(OsModel, QuietConfigIsDeterministic) {
  OsModel os(quiet_os(), sim::Rng(1));
  EXPECT_EQ(os.draw_syscall_cost(), os.config().syscall_base);
  EXPECT_EQ(os.draw_kernel_release_delay(), Duration::zero());
  EXPECT_EQ(os.draw_wakeup_latency(), Duration::zero());
}

TEST(TimerService, NoGranularityFiresAtRequestPlusSlackOnly) {
  EventLoop loop;
  OsModel os(quiet_os(), sim::Rng(1));
  TimerService timers(loop, os, {.slack_max = Duration::zero()});
  Time fired;
  timers.arm(Time::zero() + 5_ms, [&] { fired = loop.now(); });
  loop.run();
  EXPECT_EQ(fired, Time::zero() + 5_ms);
}

TEST(TimerService, GranularityRoundsUp) {
  EventLoop loop;
  OsModel os(quiet_os(), sim::Rng(1));
  TimerService timers(loop, os,
                      {.granularity = 10_ms, .slack_max = Duration::zero()});
  Time fired;
  // Asking for +3 ms with 10 ms granularity fires at +10 ms.
  timers.arm(Time::zero() + 3_ms, [&] { fired = loop.now(); });
  loop.run();
  EXPECT_EQ(fired, Time::zero() + 10_ms);
}

TEST(TimerService, ExactGranuleMultipleDoesNotRoundUpAnExtraGranule) {
  EventLoop loop;
  OsModel os(quiet_os(), sim::Rng(1));
  TimerService timers(loop, os,
                      {.granularity = 10_ms, .slack_max = Duration::zero()});
  Time fired;
  timers.arm(Time::zero() + 20_ms, [&] { fired = loop.now(); });
  loop.run();
  EXPECT_EQ(fired, Time::zero() + 20_ms);
}

TEST(TimerService, InfiniteDeadlineIsNeverRoundedOrSlacked) {
  // Time::infinite() is the idle "never fires" sentinel. Granularity
  // rounding must not move it (the old ceil, `req + g - 1`, wrapped
  // int64 for it) and the slack draw saturates at the sentinel.
  EventLoop loop;
  OsModel os(quiet_os(), sim::Rng(1));
  TimerService timers(loop, os, {.granularity = 10_ms, .slack_max = 2_ms});
  EXPECT_TRUE(timers.adjusted_fire_time(Time::infinite()).is_infinite());
}

TEST(TimerService, FarFutureDeadlineRoundsWithoutWrapping) {
  // ~146 simulated years out: the ceiling is computed div-then-round, so
  // the granule count never transits through `req + g - 1`.
  EventLoop loop;
  OsModel os(quiet_os(), sim::Rng(1));
  TimerService timers(loop, os,
                      {.granularity = 10_ms, .slack_max = Duration::zero()});
  const Time far = Time::from_ns(std::int64_t{1} << 62);
  const Time fire = timers.adjusted_fire_time(far);
  EXPECT_GE(fire, far);
  EXPECT_LT(fire, far + 10_ms);
  EXPECT_EQ(fire.ns() % (10_ms).ns(), 0);
}

TEST(TimerService, CancelWorks) {
  EventLoop loop;
  OsModel os(quiet_os(), sim::Rng(1));
  TimerService timers(loop, os, {});
  bool ran = false;
  auto handle = timers.arm(Time::zero() + 5_ms, [&] { ran = true; });
  handle.cancel();
  loop.run();
  EXPECT_FALSE(ran);
}

TEST(Gso, BufferAggregatesSizesAndIndexesSegments) {
  std::vector<Packet> segs;
  for (int i = 0; i < 4; ++i) segs.push_back(make_packet(i, 1200));
  Packet carrier = make_gso_buffer(share(std::move(segs)), 7,
                                   DataRate::megabits_per_second(40));
  EXPECT_EQ(carrier.size_bytes, 4800);
  EXPECT_EQ(carrier.gso_segment_count, 4u);
  EXPECT_TRUE(carrier.is_gso_buffer());
  ASSERT_NE(carrier.gso_segments, nullptr);
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ((*carrier.gso_segments)[i].gso_segment_index, i);
    EXPECT_EQ((*carrier.gso_segments)[i].gso_buffer_id, 7u);
  }
}

TEST(Gso, CarrierInheritsFirstSegmentTxtime) {
  std::vector<Packet> segs{make_packet(1), make_packet(2)};
  segs[0].has_txtime = true;
  segs[0].txtime = Time::zero() + 9_ms;
  Packet carrier = make_gso_buffer(share(std::move(segs)), 1, DataRate::zero());
  EXPECT_TRUE(carrier.has_txtime);
  EXPECT_EQ(carrier.txtime, Time::zero() + 9_ms);
}

class NicTest : public ::testing::Test {
 protected:
  EventLoop loop;
  net::PacketSlab slab;
  OsModel os{quiet_os(), sim::Rng(1)};
  CollectorSink sink;
};

TEST_F(NicTest, SerializesAtLineRate) {
  Nic nic(loop, slab, {.line_rate = DataRate::gigabits_per_second(1)}, os,
          &sink);
  net::WireTap tap(loop, &sink);
  nic.set_downstream(&tap);
  nic.deliver(make_packet(1));
  nic.deliver(make_packet(2));
  loop.run();
  ASSERT_EQ(tap.capture().size(), 2u);
  EXPECT_EQ((tap.capture()[1].wire_time - tap.capture()[0].wire_time).us(),
            12);
}

TEST_F(NicTest, StockGsoExpandsBackToBack) {
  Nic nic(loop, slab, {.line_rate = DataRate::gigabits_per_second(1)}, os,
          &sink);
  net::WireTap tap(loop, &sink);
  nic.set_downstream(&tap);
  std::vector<Packet> segs;
  for (int i = 0; i < 8; ++i) segs.push_back(make_packet(i, 1500));
  nic.deliver(make_gso_buffer(share(std::move(segs)), 1, DataRate::zero()));
  loop.run();
  ASSERT_EQ(tap.capture().size(), 8u);
  EXPECT_EQ(slab.live(), 0u);
  for (std::size_t i = 1; i < 8; ++i) {
    EXPECT_EQ(
        (tap.capture()[i].wire_time - tap.capture()[i - 1].wire_time).us(),
        12);  // line-rate back-to-back: the burst the paper shows
  }
}

TEST_F(NicTest, PacedGsoSpreadsSegments) {
  Nic nic(loop, slab, {.line_rate = DataRate::gigabits_per_second(1)}, os,
          &sink);
  net::WireTap tap(loop, &sink);
  nic.set_downstream(&tap);
  std::vector<Packet> segs;
  for (int i = 0; i < 8; ++i) segs.push_back(make_packet(i, 1500));
  // Paced-GSO patch: 40 Mbit/s pacing rate -> 300 us between segments.
  nic.deliver(
      make_gso_buffer(share(std::move(segs)), 1, DataRate::megabits_per_second(40)));
  loop.run();
  ASSERT_EQ(tap.capture().size(), 8u);
  EXPECT_EQ(slab.live(), 0u);
  for (std::size_t i = 1; i < 8; ++i) {
    const auto gap = tap.capture()[i].wire_time - tap.capture()[i - 1].wire_time;
    EXPECT_NEAR(gap.to_micros(), 300.0, 1.0);
  }
}

TEST_F(NicTest, LaunchTimeHoldsEarlyPackets) {
  Nic nic(loop, slab,
          {.line_rate = DataRate::gigabits_per_second(1),
           .launch_time = true,
           .launch_jitter_max = Duration::zero()},
          os, &sink);
  net::WireTap tap(loop, &sink);
  nic.set_downstream(&tap);
  Packet p = make_packet(1);
  p.has_txtime = true;
  p.txtime = Time::zero() + 5_ms;
  nic.deliver(p);  // arrives early (now = 0)
  loop.run();
  ASSERT_EQ(tap.capture().size(), 1u);
  EXPECT_EQ(tap.capture()[0].wire_time, Time::zero() + 5_ms + 12_us);
}

TEST_F(NicTest, StrictLaunchTimeDropsAMissedSlot) {
  Nic nic(loop, slab,
          {.line_rate = DataRate::gigabits_per_second(1),
           .launch_time = true,
           .drop_missed_launch = true},
          os, &sink);
  net::WireTap tap(loop, &sink);
  nic.set_downstream(&tap);
  loop.run_until(Time::zero() + 1_ms);
  Packet p = make_packet(1);
  p.has_txtime = true;
  p.txtime = Time::zero() + 500_us;  // the slot passed before the NIC saw it
  nic.deliver(p);
  loop.run();
  EXPECT_EQ(nic.missed_launch_drops(), 1);
  EXPECT_EQ(nic.packets_sent(), 0);
  EXPECT_TRUE(tap.capture().empty());
  EXPECT_EQ(slab.live(), 0u);
}

TEST_F(NicTest, LaunchTimeDisabledSendsImmediately) {
  Nic nic(loop, slab, {.launch_time = false}, os, &sink);
  net::WireTap tap(loop, &sink);
  nic.set_downstream(&tap);
  Packet p = make_packet(1);
  p.has_txtime = true;
  p.txtime = Time::zero() + 5_ms;
  nic.deliver(p);
  loop.run();
  EXPECT_LT(tap.capture()[0].wire_time, Time::zero() + 1_ms);
}

TEST(UdpSocket, SendmsgStampsKernelEntryAndCharges) {
  EventLoop loop;
  OsModel os(quiet_os(), sim::Rng(1));
  CollectorSink sink;
  net::PacketSlab slab;
  UdpSocket socket(loop, slab, os, &sink);
  loop.run_until(Time::zero() + 1_ms);
  const Duration cost = socket.sendmsg(make_packet(1));
  EXPECT_EQ(cost, os.config().syscall_base);
  ASSERT_EQ(sink.packets().size(), 1u);
  EXPECT_EQ(sink.packets()[0].kernel_entry_time, Time::zero() + 1_ms);
  EXPECT_EQ(socket.syscalls(), 1u);
}

TEST(UdpSocket, GsoSendIsOneSyscall) {
  EventLoop loop;
  OsModel os(quiet_os(), sim::Rng(1));
  CollectorSink sink;
  net::PacketSlab slab;
  UdpSocket socket(loop, slab, os, &sink);
  std::vector<Packet> segs;
  for (int i = 0; i < 16; ++i) segs.push_back(make_packet(i));
  socket.sendmsg_gso(std::move(segs), DataRate::zero());
  EXPECT_EQ(socket.syscalls(), 1u);
  ASSERT_EQ(sink.packets().size(), 1u);
  EXPECT_TRUE(sink.packets()[0].is_gso_buffer());
}

TEST(UdpSocket, SendmmsgKeepsPacketsSeparate) {
  EventLoop loop;
  OsModel os(quiet_os(), sim::Rng(1));
  CollectorSink sink;
  net::PacketSlab slab;
  UdpSocket socket(loop, slab, os, &sink);
  std::vector<Packet> pkts;
  for (int i = 0; i < 5; ++i) pkts.push_back(make_packet(i));
  socket.sendmmsg(std::move(pkts));
  EXPECT_EQ(socket.syscalls(), 1u);
  EXPECT_EQ(sink.packets().size(), 5u);  // separate skbs, paceable by qdisc
  EXPECT_FALSE(sink.packets()[0].is_gso_buffer());
}

TEST(UdpReceiver, EnforcesReceiveBuffer) {
  EventLoop loop;
  OsModel os(quiet_os(), sim::Rng(1));
  net::PacketSlab slab;
  int received = 0;
  UdpReceiver receiver(loop, slab, os, 3000, [&](Packet) { ++received; });
  // Quiet OS = zero wakeup latency, but delivery is still via an event, so
  // three back-to-back datagrams exceed the 2-packet buffer.
  receiver.deliver(make_packet(1));
  receiver.deliver(make_packet(2));
  receiver.deliver(make_packet(3));
  loop.run();
  EXPECT_EQ(received, 2);
  EXPECT_EQ(receiver.counters().packets_dropped, 1);
  EXPECT_EQ(slab.live(), 0u);
}

}  // namespace
}  // namespace quicsteps::kernel
