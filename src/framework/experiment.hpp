// Experiment configuration and per-run results — the vocabulary every
// bench and example speaks.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "framework/topology.hpp"
#include "obs/trace.hpp"
#include "quic/app_source.hpp"
#include "metrics/capture_analysis.hpp"
#include "metrics/goodput.hpp"
#include "stacks/stack_profile.hpp"

namespace quicsteps::framework {

enum class StackKind : std::uint8_t {
  kQuiche,
  kQuicheSf,   // quiche + the paper's SF patch (rollback disabled)
  kPicoquic,
  kNgtcp2,
  kTcpTls,     // nginx/wget baseline
  kIdealQuic,  // perfect user-space pacing (reference server, ablations)
};

const char* to_string(StackKind kind);

struct ExperimentConfig {
  std::string label;
  StackKind stack = StackKind::kQuiche;
  cc::CcAlgorithm cca = cc::CcAlgorithm::kCubic;
  kernel::GsoMode gso = kernel::GsoMode::kOff;
  int gso_segments = 16;
  /// Batch sends with sendmmsg (kernel can still pace per packet).
  bool use_sendmmsg = false;
  /// SO_TXTIME scheduling headroom for txtime stacks (ETF deployments).
  sim::Duration txtime_headroom = sim::Duration::zero();
  TopologyConfig topology;
  /// Transfer size. The paper uses 100 MiB; benches default to a scaled
  /// transfer for turnaround and honor QUICSTEPS_PAYLOAD_MIB.
  std::int64_t payload_bytes = 10ll * 1024 * 1024;
  int repetitions = 5;
  std::uint64_t seed = 1;
  /// Application workload shape (bulk download, chunked VOD, CBR
  /// real-time); QUIC stacks only.
  quic::SourceConfig workload;
  /// Retain the full tap capture in RunResult (CSV export, tooling).
  bool keep_capture = false;
  /// Record per-packet path spans (pacer release through delivery) and
  /// the QUIC connection's recovery samples (cwnd, bytes in flight, RTT
  /// per ACK and loss; Fig. 7) on the run's TraceBus; the finished trace
  /// lands in RunResult::trace.
  bool trace = false;
};

struct RunResult {
  bool completed = false;
  metrics::GapReport gaps;
  metrics::TrainReport trains;
  metrics::PrecisionReport precision;
  metrics::GoodputReport goodput;
  std::int64_t dropped_packets = 0;  // at the bottleneck
  std::int64_t wire_data_packets = 0;
  /// FNV-1a digest of every wire-tap departure timestamp, in wire order —
  /// the run's determinism fingerprint. Serial and parallel executions of
  /// the same (config, seed) must produce the same value at any job count
  /// (tests/check_test.cpp and tools/check.sh enforce this).
  std::uint64_t wire_hash = 0;

  // Sender-side stats.
  std::int64_t packets_sent = 0;
  std::int64_t packets_declared_lost = 0;
  std::int64_t retransmissions = 0;
  std::int64_t send_syscalls = 0;
  double cpu_time_ms = 0.0;
  std::int64_t cc_rollbacks = 0;
  /// Pacer ledger (QUIC flows): packets the pacer released and how often
  /// it made the stack wait.
  std::int64_t pacer_releases = 0;
  std::int64_t pacer_deferrals = 0;

  /// This flow's per-packet path spans and recovery samples when
  /// ExperimentConfig::trace was set (component table shared across
  /// flows; spans and samples filtered to the flow). Null otherwise.
  std::shared_ptr<const obs::TraceData> trace;

  /// Full tap capture when ExperimentConfig::keep_capture is set.
  std::shared_ptr<const std::vector<net::Packet>> capture;
};

/// Environment knobs shared by all benches:
///   QUICSTEPS_PAYLOAD_MIB — transfer size per repetition (default 10)
///   QUICSTEPS_REPS        — repetitions per configuration (default 5)
std::int64_t env_payload_bytes(std::int64_t fallback = 10ll * 1024 * 1024);
int env_repetitions(int fallback = 5);

}  // namespace quicsteps::framework
