// Extension: multi-Gbit hot path. The paper's testbed tops out at a
// 40 Mbit/s bottleneck; this bench pushes the same machinery to 1-10
// Gbit/s short-RTT paths, where the simulator's own per-packet event cost
// — not the modeled network — becomes the bottleneck. It measures
// simulated packets per wall-clock second on ONE core at each rate, with
// and without an ACK-frequency/GRO-style receiver batching window, and
// prints each run's wire_hash. Exits nonzero if any transfer does not
// complete.
//
//   QUICSTEPS_HIGHBW_MIB    transfer size per run (default 8)
//   QUICSTEPS_HIGHBW_IDEAL  set to also sweep the ideal-pacing stack
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "bench_common.hpp"

using namespace quicsteps;
using namespace quicsteps::bench;

namespace {

struct RatePoint {
  const char* label;
  double gbps;
};

framework::ExperimentConfig highbw_config(framework::StackKind stack,
                                          double gbps, int gro_us) {
  framework::ExperimentConfig config;
  config.label = "highbw";
  config.stack = stack;
  const char* mib = std::getenv("QUICSTEPS_HIGHBW_MIB");
  config.payload_bytes =
      (mib != nullptr ? std::atoll(mib) : 8ll) * 1024 * 1024;
  config.repetitions = 1;
  config.seed = 1;
  const auto rate = net::DataRate::bits_per_second(
      static_cast<std::int64_t>(gbps * 1e9));
  config.topology.bottleneck_rate = rate;
  config.topology.server_nic_rate = net::DataRate::gigabits_per_second(40);
  config.topology.path_delay_one_way = sim::Duration::millis(1);
  // 2 ms of buffering at line rate, like the paper's BDP-scaled buffers.
  config.topology.bottleneck_buffer_bytes =
      rate.bytes_in(sim::Duration::millis(2));
  config.topology.tbf_burst_bytes = 16 * 1514;
  config.topology.client_gro_window = sim::Duration::micros(gro_us);
  return config;
}

struct Measured {
  double pkts_per_s = 0;
  std::int64_t packets = 0;
  std::uint64_t wire_hash = 0;
  bool completed = true;
};

/// Single-core wall-clock measurement: best of `trials` timed batches of
/// `runs` deterministic repeats (best-of rejects scheduler noise; the work
/// per run is identical, so the fastest batch is the least-perturbed one).
Measured measure(const framework::ExperimentConfig& config, int trials,
                 int runs) {
  Measured m;
  for (int t = 0; t < trials; ++t) {
    std::int64_t packets = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < runs; ++i) {
      auto run = framework::Runner::run_once(config, config.seed);
      packets += run.packets_sent;
      m.wire_hash = run.wire_hash;
      m.packets = run.packets_sent;
      m.completed = m.completed && run.completed;
    }
    const auto t1 = std::chrono::steady_clock::now();
    const double s = std::chrono::duration<double>(t1 - t0).count();
    if (packets / s > m.pkts_per_s) m.pkts_per_s = packets / s;
  }
  return m;
}

}  // namespace

int main() {
  print_header("extH", "multi-Gbit hot path: packets/s per core");

  const RatePoint rates[] = {
      {"1 Gbit/s", 1.0}, {"2.5 Gbit/s", 2.5}, {"5 Gbit/s", 5.0},
      {"10 Gbit/s", 10.0}};
  const int gro_points[] = {0, 16};

  std::vector<framework::StackKind> stacks = {framework::StackKind::kQuicheSf};
  if (std::getenv("QUICSTEPS_HIGHBW_IDEAL") != nullptr) {
    stacks.push_back(framework::StackKind::kIdealQuic);
  }

  std::printf("%-10s %-12s %7s %10s %12s %18s %9s\n", "stack", "rate",
              "gro_us", "packets", "pkts/s", "wire_hash", "complete");
  std::printf("%s\n", std::string(84, '-').c_str());

  bool all_completed = true;
  for (auto stack : stacks) {
    for (const auto& rate : rates) {
      for (int gro_us : gro_points) {
        const Measured m =
            measure(highbw_config(stack, rate.gbps, gro_us), 2, 5);
        all_completed = all_completed && m.completed;
        std::printf("%-10s %-12s %7d %10lld %12.0f   %016llx %9s\n",
                    framework::to_string(stack), rate.label, gro_us,
                    static_cast<long long>(m.packets), m.pkts_per_s,
                    static_cast<unsigned long long>(m.wire_hash),
                    m.completed ? "yes" : "NO");
      }
    }
    std::printf("\n");
  }

  print_paper_note(
      "No testbed counterpart — the paper's bottleneck is 40 Mbit/s. This "
      "family measures the framework's own hot path: simulated packets per "
      "wall-clock second on one core as the bottleneck rate climbs to "
      "10 Gbit/s. The receiver batching window (gro_us) stands in for "
      "ACK-frequency/GRO coalescing and lifts throughput by shrinking the "
      "ACK event stream.");
  return all_completed ? 0 : 1;
}
