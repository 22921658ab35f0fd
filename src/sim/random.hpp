// Deterministic randomness for the simulation.
//
// Every source of modelled noise (OS scheduling jitter, syscall cost
// variation, timer slack, NIC clock wander) draws from one of these
// generators. All experiment repetitions derive their generator from the
// experiment seed plus the repetition index, so runs are reproducible and
// repetitions are independent.
//
// A generator holds its 64-bit seed and builds its std::mt19937_64 on the
// first draw, fork or engine() call. The engine is 2.5 KB and seeding it
// fills 312 words, and most generators a fleet builds are never drawn:
// at 10k flows every host's OsModel owns one, and only the host whose
// kernel runs the ACK receiver draws. Seeding at first use yields exactly
// the stream an eager std::mt19937_64(seed) would.
//
// Generators are move-only. A moved-to generator continues the source's
// stream; the moved-from one keeps its seed and, if drawn again, restarts
// that seed's stream from the first draw.
#pragma once

#include <cstdint>
#include <memory>
#include <random>

#include "sim/time.hpp"

namespace quicsteps::sim {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : seed_(seed) {}

  /// Derives an independent child generator; `salt` distinguishes siblings.
  /// The child is seeded from one draw of this generator, so each fork
  /// advances the parent: a child depends on how many draws and forks
  /// preceded it, not just on its salt.
  Rng fork(std::uint64_t salt);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double uniform01();

  /// Bernoulli draw.
  bool chance(double p);

  /// Uniform duration in [lo, hi].
  Duration uniform_duration(Duration lo, Duration hi);

  /// Normal-distributed duration, truncated below at `floor`.
  Duration normal_duration(Duration mean, Duration stddev,
                           Duration floor = Duration::zero());

  /// Exponentially distributed duration with the given mean, truncated below
  /// at zero (always true) and above at `cap` if non-infinite.
  Duration exponential_duration(Duration mean,
                                Duration cap = Duration::infinite());

  /// The engine, built from the seed on first use.
  std::mt19937_64& engine() {
    if (engine_ == nullptr) engine_ = std::make_unique<std::mt19937_64>(seed_);
    return *engine_;
  }

 private:
  std::uint64_t seed_;
  std::unique_ptr<std::mt19937_64> engine_;  // null until the first draw
};

}  // namespace quicsteps::sim
