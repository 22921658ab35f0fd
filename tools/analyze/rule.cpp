#include "rule.hpp"

namespace quicsteps::analyze {

const std::vector<RuleInfo>& all_rules() {
  static const std::vector<RuleInfo> kRules = {
      {"layering/upward-include",
       "A layer includes a header from a layer the manifest does not allow "
       "it to depend on."},
      {"layering/unknown-layer",
       "A source directory is not declared in tools/analyze/layers.json."},
      {"layering/cycle", "Files form an #include cycle."},
      {"units/raw-time-type",
       "Raw int64_t/uint64_t/double declaration with a time-unit suffix "
       "(_ns/_us/_ms) bypasses sim::Time / sim::Duration."},
      {"units/raw-rate-type",
       "Raw int64_t/uint64_t/double declaration with a rate suffix "
       "(_bps/_rate) bypasses net::DataRate."},
      {"units/unwrap-rewrap",
       "A Duration/Time value is unwrapped with .ns()/.us()/.ms() and "
       "rewrapped in the same expression."},
      {"determinism/wall-clock",
       "Host clock access (std::chrono, time(), clock(), gettimeofday, "
       "clock_gettime) in simulation code."},
      {"determinism/libc-rand",
       "libc RNG (rand, srand, *rand48) bypasses the seeded sim::Rng."},
      {"determinism/random-device",
       "std::random_device is nondeterministic by definition."},
      {"determinism/unordered-container",
       "An unordered_* container is named, with or without std::; its "
       "iteration order is allocator-dependent."},
      {"determinism/thread-sleep",
       "std::this_thread::sleep_* waits on the wall clock."},
      {"determinism/include-guard", "Header does not open with #pragma once."},
  };
  return kRules;
}

bool known_rule(const std::string& rule_id) {
  for (const auto& r : all_rules()) {
    if (rule_id == r.id) return true;
  }
  return false;
}

std::string rule_family(const std::string& rule_id) {
  const auto slash = rule_id.find('/');
  return slash == std::string::npos ? rule_id : rule_id.substr(0, slash);
}

}  // namespace quicsteps::analyze
