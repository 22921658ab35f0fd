// Unit tests for the discrete-event core: time arithmetic, event ordering,
// cancellation, and deterministic randomness.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <random>
#include <set>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "sim/event_loop.hpp"
#include "sim/fifo_ring.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

namespace quicsteps::sim {
namespace {

using namespace quicsteps::sim::literals;

TEST(Time, DurationFactoriesAgree) {
  EXPECT_EQ(Duration::micros(1).ns(), 1000);
  EXPECT_EQ(Duration::millis(1).ns(), 1'000'000);
  EXPECT_EQ(Duration::seconds(1).ns(), 1'000'000'000);
  EXPECT_EQ(Duration::seconds_f(0.5).ns(), 500'000'000);
  EXPECT_EQ((12_us).ns(), 12'000);
}

TEST(Time, ArithmeticRoundTrips) {
  const Time t = Time::zero() + 5_ms;
  EXPECT_EQ((t - Time::zero()).ms(), 5);
  EXPECT_EQ((t + 1_ms - t).us(), 1000);
  EXPECT_LT(Time::zero(), t);
}

TEST(Time, InfiniteSentinelSaturatesInsteadOfWrapping) {
  // Regression: Time::infinite() + d used to wrap INT64_MAX (signed
  // overflow, UB) into a huge negative instant; now both types saturate
  // at the sentinel.
  EXPECT_TRUE((Time::infinite() + 1_ms).is_infinite());
  EXPECT_TRUE((Duration::infinite() + Duration::seconds(3)).is_infinite());
  EXPECT_TRUE((Duration::seconds(3) + Duration::infinite()).is_infinite());

  Time t = Time::infinite();
  t += 250_us;
  EXPECT_TRUE(t.is_infinite());

  Duration d = Duration::infinite();
  d += 1_ns;
  EXPECT_TRUE(d.is_infinite());

  // Plain overflow past the sentinel saturates too (any sum beyond
  // INT64_MAX *is* "never"), and stays ordered against finite values.
  const Duration almost = Duration::infinite() - 1_ns;
  EXPECT_TRUE((almost + 2_ns).is_infinite());
  EXPECT_LT(Time::zero() + 5_ms, Time::infinite() + 1_ms);

  // Finite arithmetic is untouched.
  EXPECT_EQ((1_ms + 2_ms).us(), 3000);
  Time u = Time::zero();
  u += 7_ms;
  EXPECT_EQ((u - Time::zero()).ms(), 7);
}

TEST(Time, DurationRatio) {
  EXPECT_DOUBLE_EQ(10_ms / 2_ms, 5.0);
  EXPECT_DOUBLE_EQ((1_s * 0.25).to_seconds(), 0.25);
}

TEST(Time, FormattingPicksUnits) {
  EXPECT_EQ((12_us).to_string(), "12.000us");
  EXPECT_EQ((3_ms).to_string(), "3.000ms");
  EXPECT_EQ(Duration::infinite().to_string(), "inf");
}

// Callbacks for the tests below: `ctx` points at the state they update.
void push_payload(void* ctx, std::uint32_t payload) {
  static_cast<std::vector<int>*>(ctx)->push_back(static_cast<int>(payload));
}
void count(void* ctx, std::uint32_t /*payload*/) { ++*static_cast<int*>(ctx); }
void nothing(void* /*ctx*/, std::uint32_t /*payload*/) {}

TEST(EventLoop, RunsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_at(Time::zero() + 3_ms, EventClass::kGeneral, push_payload,
                   &order, 3);
  loop.schedule_at(Time::zero() + 1_ms, EventClass::kGeneral, push_payload,
                   &order, 1);
  loop.schedule_at(Time::zero() + 2_ms, EventClass::kGeneral, push_payload,
                   &order, 2);
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), Time::zero() + 3_ms);
}

TEST(EventLoop, SameInstantRunsInScheduleOrder) {
  EventLoop loop;
  std::vector<int> order;
  for (std::uint32_t i = 0; i < 10; ++i) {
    loop.schedule_at(Time::zero() + 1_ms, EventClass::kGeneral, push_payload,
                     &order, i);
  }
  loop.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventLoop, PastSchedulesClampToNow) {
  struct Nested {
    EventLoop loop;
    bool ran = false;
    void outer() {
      loop.schedule_at<&Nested::inner>(Time::zero() + 1_ms,
                                       EventClass::kGeneral, this);
    }
    void inner() {
      ran = true;
      EXPECT_EQ(loop.now(), Time::zero() + 5_ms);
    }
  } nested;
  nested.loop.schedule_at<&Nested::outer>(Time::zero() + 5_ms,
                                          EventClass::kGeneral, &nested);
  nested.loop.run();
  EXPECT_TRUE(nested.ran);
}

TEST(EventLoop, CancelPreventsExecution) {
  EventLoop loop;
  int ran = 0;
  auto handle = loop.schedule_after(1_ms, EventClass::kGeneral, count, &ran);
  EXPECT_TRUE(handle.pending());
  handle.cancel();
  EXPECT_FALSE(handle.pending());
  loop.run();
  EXPECT_EQ(ran, 0);
  EXPECT_EQ(loop.pending_count(), 0u);
}

TEST(EventLoop, CancelIsIdempotentAndSafeAfterRun) {
  EventLoop loop;
  auto handle = loop.schedule_after(1_ms, EventClass::kGeneral, nothing,
                                    nullptr);
  loop.run();
  EXPECT_FALSE(handle.pending());
  handle.cancel();  // must not crash or corrupt counts
  handle.cancel();
  EXPECT_EQ(loop.pending_count(), 0u);
}

TEST(EventLoop, RunUntilStopsAtDeadline) {
  EventLoop loop;
  int ran = 0;
  loop.schedule_at(Time::zero() + 1_ms, EventClass::kGeneral, count, &ran);
  loop.schedule_at(Time::zero() + 10_ms, EventClass::kGeneral, count, &ran);
  loop.run_until(Time::zero() + 5_ms);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(loop.now(), Time::zero() + 5_ms);
  EXPECT_EQ(loop.pending_count(), 1u);
}

TEST(EventLoop, SelfReschedulingEventTerminatesWithRunUntil) {
  struct Ticker {
    EventLoop loop;
    int fires = 0;
    void tick() {
      ++fires;
      loop.schedule_at<&Ticker::tick>(loop.now() + 1_ms, EventClass::kTimer,
                                      this);
    }
  } ticker;
  ticker.loop.schedule_at<&Ticker::tick>(Time::zero() + 1_ms,
                                         EventClass::kTimer, &ticker);
  ticker.loop.run_until(Time::zero() + 10_ms);
  EXPECT_EQ(ticker.fires, 10);
}

TEST(EventLoop, MemberCallbackGetsThePayloadAndItsOwnClassPointer) {
  // The typed helper converts the object pointer to the method's class
  // before erasing it: a method of a second base class still sees its
  // own subobject, not the derived object's address.
  struct First {
    std::uint64_t pad = 0;
  };
  struct Second {
    std::vector<std::uint32_t> got;
    void take(std::uint32_t payload) { got.push_back(payload); }
  };
  struct Both : First, Second {};
  EventLoop loop;
  Both both;
  loop.schedule_at<&Second::take>(Time::zero() + 1_us, EventClass::kQueue,
                                  &both, 7);
  loop.run();
  EXPECT_EQ(both.got, std::vector<std::uint32_t>{7});
  EXPECT_EQ(loop.stats().executed[static_cast<std::size_t>(EventClass::kQueue)],
            kLoopProfilingEnabled ? 1u : 0u);
}

TEST(EventLoop, NextEventTimeSkipsCancelled) {
  EventLoop loop;
  auto a = loop.schedule_after(1_ms, EventClass::kGeneral, nothing, nullptr);
  loop.schedule_after(2_ms, EventClass::kGeneral, nothing, nullptr);
  a.cancel();
  EXPECT_EQ(loop.next_event_time(), Time::zero() + 2_ms);
}

TEST(EventLoop, SlabStressScheduleCancelReschedule) {
  // Hammer the slot slab: schedule 100k events across a wide horizon (both
  // wheel and overflow paths), cancel every third one, reschedule into the
  // freed slots, then run to completion. Exercises slot reuse, generation
  // bumps, and tombstone pruning at scale.
  EventLoop loop;
  constexpr int kEvents = 100'000;
  std::vector<EventHandle> handles;
  handles.reserve(kEvents);
  int fired = 0;
  for (int i = 0; i < kEvents; ++i) {
    // Spread from microseconds to seconds so some land in the calendar
    // horizon and some in the far-future overflow structure.
    auto delay = Duration::micros(1 + (static_cast<std::int64_t>(i) * 37) %
                                          2'000'000);
    handles.push_back(
        loop.schedule_after(delay, EventClass::kGeneral, count, &fired));
  }
  int cancelled = 0;
  for (int i = 0; i < kEvents; i += 3) {
    handles[static_cast<std::size_t>(i)].cancel();
    ++cancelled;
  }
  EXPECT_EQ(loop.pending_count(),
            static_cast<std::size_t>(kEvents - cancelled));
  // Refill the freed slots; the old handles must stay inert.
  for (int i = 0; i < cancelled; ++i) {
    loop.schedule_after(Duration::micros(10 + i), EventClass::kGeneral, count,
                        &fired);
  }
  loop.run();
  EXPECT_EQ(fired, kEvents);  // survivors + refills, none double-fired
  EXPECT_EQ(loop.pending_count(), 0u);
}

TEST(EventLoop, StaleHandlesFromReusedSlotsAreInert) {
  // A handle whose slot was freed and re-acquired by a newer event must not
  // cancel (or otherwise affect) the new occupant.
  EventLoop loop;
  int first = 0, second = 0;
  auto a = loop.schedule_after(1_ms, EventClass::kGeneral, count, &first);
  a.cancel();  // frees the slot
  // Likely reuses a's slot with a bumped generation.
  loop.schedule_after(2_ms, EventClass::kGeneral, count, &second);
  EXPECT_FALSE(a.pending());
  a.cancel();  // stale: must be a no-op against the new occupant
  loop.run();
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);

  // Same pattern after the event RAN (not just cancelled).
  int third = 0, fourth = 0;
  auto b = loop.schedule_after(1_ms, EventClass::kGeneral, count, &third);
  loop.run();
  EXPECT_EQ(third, 1);
  loop.schedule_after(1_ms, EventClass::kGeneral, count, &fourth);
  EXPECT_FALSE(b.pending());
  b.cancel();  // stale after run: also a no-op
  loop.run();
  EXPECT_EQ(fourth, 1);
}

// -------------------------------------------- differential: EventLoop
//
// Drives seeded random interleavings of every way to queue work
// (schedule_at bound to a member or to a plain function, post_drain_at,
// post_line_at, cancel), from the outside and from inside running
// callbacks, against a reference (at, seq) priority queue. Callbacks
// schedule zero-delay records into the bucket being drained, records past
// the 16.8 ms wheel horizon, and line posts; the test alternates run_one()
// and run_until() deadlines. After every step the executed sequence,
// now(), pending_count() and next_event_time() must equal the reference's.

class LoopDifferential {
 public:
  explicit LoopDifferential(std::uint64_t seed) : rng_(seed) {
    for (int i = 0; i < 3; ++i) {
      channels_.push_back(
          loop_.register_drain(EventClass::kDelay, &drain_fn, this));
    }
  }

  void run(int steps) {
    for (int step = 0; step < steps && ok_; ++step) {
      const std::int64_t pick = rng_.uniform(0, 99);
      if (pick < 40) {
        queue_random(/*from_callback=*/false);
      } else if (pick < 50) {
        cancel_random();
      } else if (pick < 80) {
        const bool ran = loop_.run_one();
        expect(ran == (executed_before_ != executed_), "run_one result");
      } else {
        const Time deadline =
            loop_.now() + Duration::nanos(rng_.uniform(0, 3'000'000));
        loop_.run_until(deadline);
        expect(ref_.empty() || std::get<0>(*ref_.begin()) > deadline.ns(),
               "run_until left a due event");
        if (ref_now_ < deadline.ns()) ref_now_ = deadline.ns();
      }
      executed_before_ = executed_;
      check_state();
    }
    final_run_ = true;  // callbacks stop queueing, so run() terminates
    loop_.run();
    check_state();
    expect(ref_.empty(), "run() left events behind");
  }

  bool ok() const { return ok_; }
  std::uint64_t executed() const { return executed_; }

 private:
  using Entry = std::tuple<std::int64_t, std::uint64_t, std::uint32_t>;

  static void drain_fn(void* self, std::uint32_t id) {
    static_cast<LoopDifferential*>(self)->on_run(id);
  }

  void expect(bool cond, const char* what) {
    if (!cond && ok_) {
      ok_ = false;
      ADD_FAILURE() << what << " (after " << executed_ << " events)";
    }
  }

  Duration random_delay() {
    switch (rng_.uniform(0, 5)) {
      case 0:
        return Duration::zero();  // same instant: the active bucket
      case 1:
        return Duration::nanos(rng_.uniform(1, 8'000));  // same bucket
      case 2:
        return Duration::nanos(rng_.uniform(1, 1'000'000));
      case 3:
        return Duration::nanos(rng_.uniform(1, 16'000'000));
      case 4:  // beyond the wheel horizon
        return Duration::nanos(rng_.uniform(16'800'000, 40'000'000));
      default:  // in the past: clamps to now()
        return Duration::nanos(-rng_.uniform(0, 1'000'000));
    }
  }

  void queue_random(bool from_callback) {
    // The loop clamps past times to now(); the reference clamps here.
    Time at = loop_.now() + random_delay();
    const Time due = std::max(at, loop_.now());
    const std::uint32_t id = next_id_++;
    switch (rng_.uniform(0, 4)) {
      case 0:
        handles_.push_back(
            {id, loop_.schedule_at<&LoopDifferential::on_run>(
                     at, EventClass::kTimer, this, id)});
        break;
      case 1:
        handles_.push_back({id, loop_.schedule_at(at, EventClass::kDelay,
                                                  &drain_fn, this, id)});
        break;
      case 2:
        loop_.post_drain_at(
            at, channels_[static_cast<std::size_t>(rng_.uniform(0, 2))], id);
        break;
      default: {
        // Lines on channels 0 and 1: `due` may not decrease along a line.
        const auto line = static_cast<std::size_t>(rng_.uniform(0, 1));
        if (due.ns() < line_last_[line]) at = Time::from_ns(line_last_[line]);
        line_last_[line] = std::max(due.ns(), line_last_[line]);
        loop_.post_line_at(at, channels_[line], id);
        break;
      }
    }
    ref_.insert({std::max(at, loop_.now()).ns(), next_seq_++, id});
    if (from_callback) return;
    // Occasionally queue a burst, so buckets hold more than one record.
    if (rng_.chance(0.2)) queue_random(false);
  }

  void cancel_random() {
    if (handles_.empty()) return;
    const auto i =
        static_cast<std::size_t>(rng_.uniform(0, static_cast<std::int64_t>(
                                                     handles_.size()) - 1));
    auto [id, handle] = handles_[i];
    handles_[i] = handles_.back();
    handles_.pop_back();
    const auto it = find_ref(id);
    expect(handle.pending() == (it != ref_.end()), "pending() disagrees");
    handle.cancel();
    expect(!handle.pending(), "cancel() left the handle pending");
    if (it != ref_.end()) ref_.erase(it);
  }

  std::set<Entry>::iterator find_ref(std::uint32_t id) {
    for (auto it = ref_.begin(); it != ref_.end(); ++it) {
      if (std::get<2>(*it) == id) return it;
    }
    return ref_.end();
  }

  void on_run(std::uint32_t id) {
    ++executed_;
    expect(!ref_.empty() && std::get<2>(*ref_.begin()) == id,
           "executed out of (at, seq) order");
    if (!ok_) return;
    expect(loop_.now().ns() == std::get<0>(*ref_.begin()), "now() != at");
    ref_now_ = std::get<0>(*ref_.begin());
    ref_.erase(ref_.begin());
    // A callback sees the queue it runs in: the event itself gone, the
    // next entry of its delay line already queued.
    check_state();
    // Work queued from inside a callback lands in the bucket being drained
    // when its delay is short: the case in-order insertion must keep
    // sorted.
    if (final_run_) return;
    // Fewer than one child per event on average keeps the queue bounded.
    const std::int64_t extra = rng_.chance(0.4) ? rng_.uniform(1, 2) : 0;
    for (std::int64_t i = 0; i < extra; ++i) queue_random(true);
    if (rng_.chance(0.1)) cancel_random();
  }

  void check_state() {
    expect(loop_.now().ns() == ref_now_, "now()");
    expect(loop_.pending_count() == ref_.size(), "pending_count()");
    expect(loop_.empty() == ref_.empty(), "empty()");
    const Time next = ref_.empty() ? Time::infinite()
                                   : Time::from_ns(std::get<0>(*ref_.begin()));
    expect(loop_.next_event_time() == next, "next_event_time()");
  }

  EventLoop loop_;
  Rng rng_;
  std::vector<DrainId> channels_;
  std::vector<std::pair<std::uint32_t, EventHandle>> handles_;
  std::set<Entry> ref_;
  std::int64_t line_last_[2] = {0, 0};
  std::int64_t ref_now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint32_t next_id_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t executed_before_ = 0;
  bool final_run_ = false;
  bool ok_ = true;
};

TEST(EventLoopDifferential, MatchesReferenceQueueOnRandomInterleavings) {
  std::uint64_t executed = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    LoopDifferential diff(seed);
    diff.run(2500);
    ASSERT_TRUE(diff.ok()) << "seed " << seed;
    executed += diff.executed();
  }
  EXPECT_GT(executed, 50'000u);  // the interleavings did real work
}

TEST(EventLoop, RegisteringPastTheChannelIdLimitThrows) {
  // Channel ids are 14 bits; id 0x4000 would read as a posted record on
  // channel 0. The limit holds in every build, not only audit builds.
  EventLoop loop;
  std::vector<std::uint32_t> seen;
  const DrainFn ignore = [](void*, std::uint32_t) {};
  const DrainFn record = [](void* ctx, std::uint32_t payload) {
    static_cast<std::vector<std::uint32_t>*>(ctx)->push_back(payload);
  };
  for (std::size_t i = 0; i + 1 < EventLoop::kMaxDrainChannels; ++i) {
    loop.register_drain(EventClass::kTransmit, ignore, nullptr);
  }
  const DrainId last = loop.register_drain(EventClass::kTransmit, record, &seen);
  EXPECT_EQ(last, EventLoop::kMaxDrainChannels - 1);
  EXPECT_THROW(loop.register_drain(EventClass::kTransmit, record, &seen),
               std::length_error);
  loop.post_drain_at(Time::zero() + 1_us, last, 7);
  loop.run();
  EXPECT_EQ(seen, std::vector<std::uint32_t>{7});
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform(0, 1'000'000), b.uniform(0, 1'000'000));
  }
}

TEST(Rng, ForkedStreamsDiffer) {
  Rng root(7);
  Rng a = root.fork(1);
  Rng b = root.fork(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform(0, 1 << 30) == b.uniform(0, 1 << 30)) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    auto v = rng.uniform(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, NormalDurationRespectsFloor) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    auto d = rng.normal_duration(10_us, 100_us, Duration::zero());
    EXPECT_GE(d, Duration::zero());
  }
}

TEST(Rng, ExponentialDurationRespectsCap) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    auto d = rng.exponential_duration(50_us, 200_us);
    EXPECT_GE(d, Duration::zero());
    EXPECT_LE(d, 200_us);
  }
}

TEST(Rng, ExponentialMeanIsRoughlyRight) {
  Rng rng(99);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    sum += rng.exponential_duration(100_us).to_micros();
  }
  EXPECT_NEAR(sum / n, 100.0, 5.0);
}

TEST(Rng, ChanceEdgeCases) {
  Rng rng(3);
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_TRUE(rng.chance(1.0));
}

// The oracle for the tests below: what each Rng method draws, written
// against an eagerly seeded std::mt19937_64. A generator builds its engine
// on first use, and every stream must still be exactly this one.
struct EagerRng {
  explicit EagerRng(std::uint64_t seed) : engine(seed) {}

  std::int64_t uniform(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine);
  }
  Duration normal_duration(Duration mean, Duration stddev) {
    std::normal_distribution<double> dist(static_cast<double>(mean.ns()),
                                          static_cast<double>(stddev.ns()));
    return max(Duration::nanos(static_cast<std::int64_t>(dist(engine))),
               Duration::zero());
  }
  Duration exponential_duration(Duration mean) {
    std::exponential_distribution<double> dist(
        1.0 / static_cast<double>(mean.ns()));
    return Duration::nanos(static_cast<std::int64_t>(dist(engine)));
  }
  /// Rng::fork's child seed: a splitmix64 finalizer over one parent draw.
  std::uint64_t fork_seed(std::uint64_t salt) {
    std::uint64_t x = engine() ^ (salt * 0x9E3779B97F4A7C15ULL);
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ULL;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBULL;
    x ^= x >> 31;
    return x;
  }

  std::mt19937_64 engine;
};

/// Draws one of each distribution from both and expects equal values.
void expect_same_draws(Rng& rng, EagerRng& eager, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    ASSERT_EQ(rng.uniform(-1000, 1000), eager.uniform(-1000, 1000));
    ASSERT_EQ(rng.normal_duration(1_ms, 300_us),
              eager.normal_duration(1_ms, 300_us));
    ASSERT_EQ(rng.exponential_duration(250_us),
              eager.exponential_duration(250_us));
  }
}

TEST(Rng, LazyEngineYieldsTheEagerStream) {
  Rng rng(0x5eed);
  EagerRng eager(0x5eed);
  expect_same_draws(rng, eager, 200);
  // engine() hands out the same engine, mid-stream.
  EXPECT_EQ(rng.engine()(), eager.engine());
}

TEST(Rng, ForkedChildYieldsTheEagerStreamWhenFirstDrawnLate) {
  Rng parent(11);
  EagerRng eager_parent(11);
  expect_same_draws(parent, eager_parent, 3);

  // The early child is forked now and first drawn only after its parent
  // and a later sibling have moved on; the late child is forked from an
  // undrawn parent whose engine the fork itself builds.
  Rng early = parent.fork(1);
  EagerRng eager_early(eager_parent.fork_seed(1));
  expect_same_draws(parent, eager_parent, 50);
  Rng sibling = parent.fork(2);
  EagerRng eager_sibling(eager_parent.fork_seed(2));
  expect_same_draws(sibling, eager_sibling, 50);
  expect_same_draws(early, eager_early, 50);

  Rng undrawn(12);
  EagerRng eager_undrawn(12);
  Rng late = undrawn.fork(3);
  EagerRng eager_late(eager_undrawn.fork_seed(3));
  expect_same_draws(late, eager_late, 50);
  expect_same_draws(undrawn, eager_undrawn, 50);
}

TEST(Rng, MovedToContinuesAndMovedFromRestartsAtItsSeed) {
  // Moved before any draw: the new owner draws the seed's stream.
  Rng fresh(21);
  Rng owner(std::move(fresh));
  EagerRng eager(21);
  expect_same_draws(owner, eager, 20);

  // Moved mid-stream: the new owner continues it, and the moved-from
  // generator, drawn again, starts its seed's stream from the top.
  Rng source(22);
  EagerRng eager_source(22);
  expect_same_draws(source, eager_source, 5);
  Rng target(std::move(source));
  expect_same_draws(target, eager_source, 20);
  EagerRng restarted(22);
  expect_same_draws(source, restarted, 20);
}

TEST(FifoRing, KeepsOrderAcrossWrapsGrowthAndFrontPushes) {
  // The ring grows 1, 2, 4, ...: each push below that fills it finds the
  // head mid-array and the queue wrapped, and the front pushes step the
  // head back past index 0. The reference is a std::deque.
  FifoRing<int> ring;
  std::deque<int> ref;
  int next = 0;
  for (int round = 0; round < 200; ++round) {
    for (int i = 0; i < round % 7; ++i) {
      ring.push_back(next);
      ref.push_back(next++);
    }
    if (round % 5 == 0) {
      ring.push_front(next);
      ref.push_front(next++);
    }
    for (int i = 0; i < round % 4 && !ref.empty(); ++i) {
      ASSERT_EQ(ring.front(), ref.front());
      ring.pop_front();
      ref.pop_front();
    }
    ASSERT_EQ(ring.size(), ref.size());
    if (!ref.empty()) {
      ASSERT_EQ(ring.back(), ref.back());
    }
  }
  while (!ref.empty()) {
    ASSERT_EQ(ring.front(), ref.front());
    ring.pop_front();
    ref.pop_front();
  }
  EXPECT_TRUE(ring.empty());
}

}  // namespace
}  // namespace quicsteps::sim
