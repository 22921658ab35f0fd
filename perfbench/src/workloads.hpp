// The benchmark's workloads, and what one simulation of them reports.
//
// Every workload is a closed loop: its simulations run one at a time on one
// thread, each through framework::run_flows, and all of them are built from
// the workload seed alone.
//   paper_grid   the 11 configurations the paper artifacts use x 10 seeds,
//                10 MiB each, on the 40 Mbit/s TBF / 20 ms netem paper path
//   hotpath_10g  one ideal-pacing 512 MiB flow at 10 Gbit/s, GRO 16 us
//   fabric_10k   10,000 ideal-pacing 64 KiB flows at a 2 Mbit/s fair share,
//                lite metrics, sampled telemetry, framework::fleet_health
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "framework/flows.hpp"
#include "sim/event_loop.hpp"

namespace perfbench {

/// The seed whose outputs goldens.txt pins.
inline constexpr std::uint64_t kGoldenSeed = 1;

struct Workload {
  std::string name;
  /// One label per simulation ("<config>/seed=<n>"), the golden-file key.
  std::vector<std::string> labels;
  std::vector<quicsteps::framework::MultiFlowConfig> sims;
  /// Each simulation ends with framework::fleet_health, as the CLI's fleet
  /// mode does.
  bool fleet = false;
};

/// Builds workload `name` for `seed`; false for an unknown name.
bool make_workload(const std::string& name, std::uint64_t seed, Workload& out);

/// What an untraced simulation reports about itself: the loop profile, the
/// bottleneck counters and the per-flow sender fields, summed over flows.
/// Each field is a pure function of (config, seed), so two runs of one
/// seed must agree on all of them.
struct SimCounts {
  std::array<std::int64_t, quicsteps::sim::kEventClassCount> executed{};
  std::int64_t scheduled = 0;
  std::int64_t cancelled = 0;
  std::int64_t overflow = 0;
  std::int64_t drain_executed = 0;
  std::int64_t drain_batched = 0;
  std::int64_t max_pending = 0;
  std::int64_t wire_pkts = 0;  // RunResult::wire_data_packets
  std::int64_t bottleneck_in = 0;
  std::int64_t bottleneck_drops = 0;
  std::int64_t packets_sent = 0;
  /// packets_sent of the flows whose stack makes send syscalls (the ideal
  /// server and TCP make none), the numerator of packets per syscall.
  std::int64_t syscall_pkts = 0;
  std::int64_t send_syscalls = 0;
  std::int64_t retransmissions = 0;
  std::int64_t pacer_releases = 0;
  std::int64_t pacer_deferrals = 0;
  std::int64_t cc_rollbacks = 0;
  std::int64_t flows = 0;
  std::int64_t completed = 0;
  /// The flow's wire_hash, or for several flows an FNV-1a digest of their
  /// wire_hash values in flows[] order.
  std::uint64_t wire = 0;
};

SimCounts count_sim(const quicsteps::framework::MultiFlowResult& result);

/// Adds `c` into a workload total (max_pending takes the maximum; `wire`
/// is left alone).
void accumulate(SimCounts& total, const SimCounts& c);

/// "name a -> b" for each field that differs; empty when equal.
std::string count_diff(const SimCounts& a, const SimCounts& b);

/// The golden-file value of one simulation:
/// "wire=<hex> drops=<n> completed=<k>/<flows>".
std::string fingerprint(const SimCounts& c);

}  // namespace perfbench
