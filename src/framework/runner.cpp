#include "framework/runner.hpp"

#include <utility>

#include "framework/flows.hpp"
#include "framework/parallel.hpp"

namespace quicsteps::framework {

stacks::StackProfile profile_for(const ExperimentConfig& config) {
  stacks::ProfileOptions opts;
  opts.cca = config.cca;
  opts.gso = config.gso;
  opts.gso_segments = config.gso_segments;
  opts.txtime_headroom = config.txtime_headroom;
  opts.use_sendmmsg = config.use_sendmmsg;
  switch (config.stack) {
    case StackKind::kQuiche:
      return stacks::quiche_profile(opts);
    case StackKind::kQuicheSf:
      opts.sf_patch = true;
      return stacks::quiche_profile(opts);
    case StackKind::kPicoquic:
      return stacks::picoquic_profile(opts);
    case StackKind::kNgtcp2:
      return stacks::ngtcp2_profile(opts);
    default:
      return stacks::quiche_profile(opts);
  }
}

sim::Duration workload_duration(const ExperimentConfig& config) {
  const auto& w = config.workload;
  switch (w.kind) {
    case quic::SourceKind::kBulk:
      return sim::Duration::zero();
    case quic::SourceKind::kChunked: {
      const double chunks = static_cast<double>(config.payload_bytes) /
                            static_cast<double>(w.chunk_bytes);
      return w.period * chunks;
    }
    case quic::SourceKind::kCbr: {
      const double seconds = static_cast<double>(config.payload_bytes) /
                             w.rate.bytes_per_second_f();
      return sim::Duration::seconds_f(seconds);
    }
  }
  return sim::Duration::zero();
}

sim::Duration run_deadline(const ExperimentConfig& config) {
  // Generous bound: 8x the ideal transfer time plus startup slack. A stall
  // beyond this marks the run incomplete instead of hanging the bench.
  const double ideal_seconds =
      static_cast<double>(config.payload_bytes) * 8.0 /
      static_cast<double>(config.topology.bottleneck_rate.bps());
  return sim::Duration::seconds_f(8.0 * ideal_seconds + 10.0);
}

RunResult Runner::run_once(const ExperimentConfig& config,
                           std::uint64_t seed) {
  // The N=1 instantiation of the flow fabric. run_flows reproduces the
  // historical single-flow wiring bit-for-bit (same RNG forks in the same
  // order, same flow id, same start order), so this delegation changes no
  // wire_hash.
  MultiFlowConfig flows;
  flows.seed = seed;
  flows.flows.push_back(FlowSpec{.config = config});
  MultiFlowResult result = run_flows(flows);
  return std::move(result.flows.front());
}

std::vector<RunResult> Runner::run_all(const ExperimentConfig& config) {
  // Repetitions fan out across the default worker pool (QUICSTEPS_JOBS /
  // hardware concurrency); results are bit-identical to a serial loop.
  return ParallelRunner().run_all(config);
}

}  // namespace quicsteps::framework
