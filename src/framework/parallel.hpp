// Parallel experiment execution.
//
// Every paper artifact is dozens of independent (config, seed) simulations;
// each Runner::run_once owns its EventLoop, Rng, and Network, so the runs
// are embarrassingly parallel. ParallelRunner fans a whole grid out across
// a worker pool and returns results in deterministic (config index, rep
// index) order regardless of scheduling — parallel output is bit-identical
// to the serial path (framework_test asserts this).
//
// Worker count resolution (first match wins):
//   1. explicit `jobs` constructor argument (> 0)
//   2. QUICSTEPS_JOBS environment variable
//   3. std::thread::hardware_concurrency()
// With one job (or one task) everything runs inline on the caller thread.
#pragma once

#include <vector>

#include "framework/experiment.hpp"
#include "framework/flows.hpp"

namespace quicsteps::framework {

/// Worker count from QUICSTEPS_JOBS, else `fallback`; 0 keeps the
/// hardware default.
int env_jobs(int fallback = 0);

class ParallelRunner {
 public:
  /// jobs <= 0 resolves via QUICSTEPS_JOBS / hardware_concurrency.
  explicit ParallelRunner(int jobs = 0);

  int jobs() const { return jobs_; }

  /// All repetitions of one configuration (seed, seed+1, ...), in
  /// repetition order.
  std::vector<RunResult> run_all(const ExperimentConfig& config) const;

  /// A whole configuration grid: result[i] holds configs[i]'s repetitions
  /// in repetition order. The grid is flattened so workers stay busy even
  /// when repetition counts differ per config.
  std::vector<std::vector<RunResult>> run_grid(
      const std::vector<ExperimentConfig>& configs) const;

  /// Independent N-flow fabrics (each one shared bottleneck with its own
  /// sender set), in input order.
  std::vector<MultiFlowResult> run_flow_sets(
      const std::vector<MultiFlowConfig>& configs) const;

 private:
  int jobs_;
};

}  // namespace quicsteps::framework
