// Unit tests for the pacing strategies: interval pacer spacing and
// no-credit property; leaky bucket credit accrual, burst-after-idle, and
// depth handling.
#include <gtest/gtest.h>

#include "pacing/interval_pacer.hpp"
#include "pacing/leaky_bucket_pacer.hpp"
#include "pacing/pacer.hpp"

namespace quicsteps::pacing {
namespace {

using namespace quicsteps::sim::literals;
using net::DataRate;
using sim::Duration;
using sim::Time;

constexpr std::int64_t kPkt = 1500;
const DataRate kRate = DataRate::megabits_per_second(40);  // 300 us / pkt

TEST(IntervalPacer, FirstPacketGoesImmediately) {
  IntervalPacer pacer;
  EXPECT_EQ(pacer.earliest_send_time(Time::zero() + 1_ms, kPkt, kRate),
            Time::zero() + 1_ms);
}

TEST(IntervalPacer, SpacesBySizeOverRate) {
  IntervalPacer pacer;
  Time t = Time::zero() + 1_ms;
  pacer.on_packet_sent(t, kPkt, kRate);
  const Time next = pacer.earliest_send_time(t, kPkt, kRate);
  EXPECT_EQ((next - t).us(), 300);
}

TEST(IntervalPacer, ScheduleAccumulatesWhenCommittingFutureTimes) {
  // quiche commits txtimes possibly ahead of "now": the schedule must keep
  // marching by size/rate each time.
  IntervalPacer pacer;
  Time now = Time::zero() + 1_ms;
  Time planned = now;
  for (int i = 0; i < 5; ++i) {
    planned = pacer.earliest_send_time(now, kPkt, kRate);
    pacer.on_packet_sent(planned, kPkt, kRate);
  }
  EXPECT_EQ((planned - now).us(), 4 * 300);
}

TEST(IntervalPacer, NoCreditAfterIdle) {
  // After a long idle period the schedule restarts at now: packets do NOT
  // burst (the defining difference from the leaky bucket).
  IntervalPacer pacer;
  pacer.on_packet_sent(Time::zero() + 1_ms, kPkt, kRate);
  const Time later = Time::zero() + 100_ms;
  EXPECT_EQ(pacer.earliest_send_time(later, kPkt, kRate), later);
  pacer.on_packet_sent(later, kPkt, kRate);
  // And the one after is again spaced by 300 us, not allowed immediately.
  EXPECT_EQ((pacer.earliest_send_time(later, kPkt, kRate) - later).us(), 300);
}

TEST(IntervalPacer, ZeroOrInfiniteRateNeverDelays) {
  IntervalPacer pacer;
  pacer.on_packet_sent(Time::zero(), kPkt, DataRate::zero());
  EXPECT_EQ(pacer.earliest_send_time(Time::zero() + 1_ms, kPkt,
                                     DataRate::zero()),
            Time::zero() + 1_ms);
  pacer.on_packet_sent(Time::zero() + 1_ms, kPkt, DataRate::infinite());
  EXPECT_EQ(pacer.earliest_send_time(Time::zero() + 2_ms, kPkt,
                                     DataRate::infinite()),
            Time::zero() + 2_ms);
}

TEST(LeakyBucket, InitialBucketIsFull) {
  LeakyBucketPacer pacer(16 * kPkt);
  // 16 packets may leave immediately.
  Time t = Time::zero() + 1_ms;
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(pacer.earliest_send_time(t, kPkt, kRate), t) << "packet " << i;
    pacer.on_packet_sent(t, kPkt, kRate);
  }
  // The 17th must wait ~one packet interval.
  const Time next = pacer.earliest_send_time(t, kPkt, kRate);
  EXPECT_NEAR((next - t).to_micros(), 300.0, 5.0);
}

TEST(LeakyBucket, CreditRefillsAtRate) {
  LeakyBucketPacer pacer(16 * kPkt);
  Time t = Time::zero() + 1_ms;
  for (int i = 0; i < 16; ++i) pacer.on_packet_sent(t, kPkt, kRate);
  // After 300 us exactly one packet's worth of credit is back.
  t += 300_us;
  EXPECT_EQ(pacer.earliest_send_time(t, kPkt, kRate), t);
  pacer.on_packet_sent(t, kPkt, kRate);
  EXPECT_GT(pacer.earliest_send_time(t, kPkt, kRate), t);
}

TEST(LeakyBucket, BurstAfterIdle) {
  // The picoquic signature: drain the bucket, go idle, and a full bucket
  // burst is available again.
  LeakyBucketPacer pacer(16 * kPkt);
  Time t = Time::zero() + 1_ms;
  for (int i = 0; i < 16; ++i) pacer.on_packet_sent(t, kPkt, kRate);
  ASSERT_GT(pacer.earliest_send_time(t, kPkt, kRate), t);
  // 16 packets at 40 Mbit/s need 4.8 ms of refill; idle for 10 ms.
  t += 10_ms;
  int sendable = 0;
  while (pacer.earliest_send_time(t, kPkt, kRate) == t && sendable < 100) {
    pacer.on_packet_sent(t, kPkt, kRate);
    ++sendable;
  }
  EXPECT_EQ(sendable, 16);
}

TEST(LeakyBucket, ShallowBucketPacesSmoothly) {
  // picoquic's BBR path: depth ~1 packet means every packet waits its
  // interval — near-perfect spacing.
  LeakyBucketPacer pacer(kPkt);
  Time t = Time::zero() + 1_ms;
  pacer.on_packet_sent(t, kPkt, kRate);
  for (int i = 0; i < 10; ++i) {
    const Time next = pacer.earliest_send_time(t, kPkt, kRate);
    EXPECT_NEAR((next - t).to_micros(), 300.0, 5.0);
    pacer.on_packet_sent(next, kPkt, kRate);
    t = next;
  }
}

TEST(LeakyBucket, SetDepthClampsTokens) {
  LeakyBucketPacer pacer(16 * kPkt);
  pacer.set_depth(2 * kPkt);
  EXPECT_LE(pacer.tokens(), 2.0 * kPkt);
}

TEST(LeakyBucket, WaitTimeMatchesDeficit) {
  LeakyBucketPacer pacer(kPkt);
  Time t = Time::zero() + 1_ms;
  pacer.on_packet_sent(t, kPkt, kRate);  // bucket now empty
  // Two packets of deficit => 600 us wait for a 3000 B packet.
  const Time next = pacer.earliest_send_time(t, 3000, kRate);
  EXPECT_NEAR((next - t).to_micros(), 600.0, 5.0);
}

TEST(Factory, MakesConfiguredKind) {
  EXPECT_STREQ(make_pacer({.kind = PacerKind::kInterval})->name(), "interval");
  EXPECT_STREQ(make_pacer({.kind = PacerKind::kLeakyBucket})->name(),
               "leaky-bucket");
}

}  // namespace
}  // namespace quicsteps::pacing
