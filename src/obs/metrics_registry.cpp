#include "obs/metrics_registry.hpp"

#include <algorithm>
#include <utility>
#include <vector>

namespace quicsteps::obs {

void MetricsRegistry::set_gauge(const std::string& name, std::int64_t value) {
  gauges_[name] = value;
}

void MetricsRegistry::add_counter(const std::string& name,
                                  std::int64_t delta) {
  counters_[name] += delta;
}

CounterHandle MetricsRegistry::counter(const std::string& name) {
  // std::map nodes are pointer-stable under later insertions, so the
  // handle survives any number of other metrics being registered.
  return CounterHandle(&counters_[name]);
}

QuantileSketch& MetricsRegistry::sketch(const std::string& name) {
  return sketches_[name];
}

void MetricsRegistry::add_counters_table(const std::string& prefix,
                                         const net::CountersTable& table) {
  for (const auto& [name, counters] : table.rows()) {
    const std::string base = prefix + name;
    set_gauge(base + "/packets_in", counters.packets_in);
    set_gauge(base + "/packets_out", counters.packets_out);
    set_gauge(base + "/packets_dropped", counters.packets_dropped);
    set_gauge(base + "/queue_peak", counters.packets_queued_peak);
  }
}

std::string MetricsRegistry::to_string() const {
  // Merge the three ordered maps into one name-sorted emission; the kind
  // tag keeps a gauge and a counter of the same name distinguishable.
  std::vector<std::pair<std::string, std::string>> lines;
  lines.reserve(gauges_.size() + counters_.size() + sketches_.size());
  for (const auto& [name, value] : gauges_) {
    lines.emplace_back(name, name + ": gauge " + std::to_string(value));
  }
  for (const auto& [name, value] : counters_) {
    lines.emplace_back(name, name + ": counter " + std::to_string(value));
  }
  for (const auto& [name, sk] : sketches_) {
    lines.emplace_back(name, name + ": sketch " + sk.to_string());
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const auto& [name, line] : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

}  // namespace quicsteps::obs
