#include "sim/random.hpp"

#include <algorithm>

namespace quicsteps::sim {

Rng Rng::fork(std::uint64_t salt) {
  // splitmix64-style mix of a fresh draw with the salt gives independent
  // child streams without correlating consecutive forks.
  std::uint64_t x = engine()() ^ (salt * 0x9E3779B97F4A7C15ULL);
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return Rng(x);
}

std::int64_t Rng::uniform(std::int64_t lo, std::int64_t hi) {
  std::uniform_int_distribution<std::int64_t> dist(lo, hi);
  return dist(engine());
}

double Rng::uniform01() {
  std::uniform_real_distribution<double> dist(0.0, 1.0);
  return dist(engine());
}

bool Rng::chance(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform01() < p;
}

Duration Rng::uniform_duration(Duration lo, Duration hi) {
  if (hi < lo) std::swap(lo, hi);
  return Duration::nanos(uniform(lo.ns(), hi.ns()));
}

Duration Rng::normal_duration(Duration mean, Duration stddev, Duration floor) {
  if (stddev <= Duration::zero()) return max(mean, floor);
  std::normal_distribution<double> dist(static_cast<double>(mean.ns()),
                                        static_cast<double>(stddev.ns()));
  auto draw = Duration::nanos(static_cast<std::int64_t>(dist(engine())));
  return max(draw, floor);
}

Duration Rng::exponential_duration(Duration mean, Duration cap) {
  if (mean <= Duration::zero()) return Duration::zero();
  std::exponential_distribution<double> dist(1.0 /
                                             static_cast<double>(mean.ns()));
  auto draw = Duration::nanos(static_cast<std::int64_t>(dist(engine())));
  return cap.is_infinite() ? draw : min(draw, cap);
}

}  // namespace quicsteps::sim
