#include "framework/parallel.hpp"

#include <algorithm>
#include <cstdlib>
#include <thread>
#include <utility>

#include "framework/parallel_for.hpp"
#include "framework/runner.hpp"

namespace quicsteps::framework {

int env_jobs(int fallback) {
  if (const char* env = std::getenv("QUICSTEPS_JOBS")) {
    const long jobs = std::strtol(env, nullptr, 10);
    if (jobs > 0) return static_cast<int>(jobs);
  }
  return fallback;
}

ParallelRunner::ParallelRunner(int jobs) {
  if (jobs <= 0) jobs = env_jobs(0);
  if (jobs <= 0) {
    jobs = static_cast<int>(std::thread::hardware_concurrency());
  }
  jobs_ = jobs > 0 ? jobs : 1;
}

std::vector<RunResult> ParallelRunner::run_all(
    const ExperimentConfig& config) const {
  return run_grid({config}).front();
}

std::vector<std::vector<RunResult>> ParallelRunner::run_grid(
    const std::vector<ExperimentConfig>& configs) const {
  // Flatten the (config, repetition) grid into one task list; each task
  // writes into its preassigned slot, so completion order is irrelevant.
  struct Task {
    std::size_t config;
    int rep;
  };
  std::vector<Task> tasks;
  std::vector<std::vector<RunResult>> results(configs.size());
  for (std::size_t c = 0; c < configs.size(); ++c) {
    const int reps = std::max(configs[c].repetitions, 0);
    results[c].resize(static_cast<std::size_t>(reps));
    for (int rep = 0; rep < reps; ++rep) tasks.push_back({c, rep});
  }

  parallel_for(tasks.size(), jobs_, [&](std::size_t i) {
    const Task& task = tasks[i];
    const ExperimentConfig& config = configs[task.config];
    results[task.config][static_cast<std::size_t>(task.rep)] =
        Runner::run_once(config,
                         config.seed + static_cast<std::uint64_t>(task.rep));
  });
  return results;
}

std::vector<MultiFlowResult> ParallelRunner::run_flow_sets(
    const std::vector<MultiFlowConfig>& configs) const {
  std::vector<MultiFlowResult> results(configs.size());
  parallel_for(configs.size(), jobs_,
               [&](std::size_t i) { results[i] = run_flows(configs[i]); });
  return results;
}

}  // namespace quicsteps::framework
