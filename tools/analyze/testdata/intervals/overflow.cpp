// units/* interval-rule fixture: each seeded finding sits on a pinned
// line (tests/analyze_test.cpp asserts file:line). Token-level fixture —
// the analyzer never compiles it, so the sim/net types are spelled the
// way real call sites spell them.
#include <cstdint>

namespace fx {

sim::Duration factory_overflow() {
  // millis scales by 1'000'000 without saturating: 1e13 ms > int64 ns.
  const sim::Duration d = sim::Duration::millis(10'000'000'000'000);
  return d;
}

std::int64_t add_overflow(sim::Duration a, sim::Duration b) {
  // Both unwraps cover the full range (the sentinel is representable);
  // the raw + does not saturate.
  const std::int64_t total = a.ns() + b.ns();
  return total;
}

std::int64_t mul_overflow(sim::Duration d) {
  const std::int64_t scaled = d.ns() * 3;
  return scaled;
}

std::int64_t div_by_possibly_zero(std::int64_t bits, net::DataRate rate) {
  // No guard proves the rate nonzero: zero is the "link down" state.
  const std::int64_t secs = bits / rate.bps();
  return secs;
}

}  // namespace fx
