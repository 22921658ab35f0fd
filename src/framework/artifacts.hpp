// Artifact export — the paper publishes its packet captures, logs, and
// evaluation inputs (Appendix B); these helpers write the simulation's
// equivalents as CSV so external tooling (pandas/gnuplot) can re-analyze
// runs without touching C++.
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "framework/experiment.hpp"
#include "net/packet.hpp"
#include "obs/exporters.hpp"

namespace quicsteps::framework {

/// Writes a wire capture as CSV: one row per packet with the timestamps
/// and metadata the paper's evaluation scripts consume
/// (id, flow, kind, packet_number, size, wire_time_ns, expected_send_ns,
///  kernel_entry_ns, txtime_ns, gso_buffer, gso_index).
void write_capture_csv(std::ostream& out,
                       const std::vector<net::Packet>& capture);

/// Writes a traced run's recovery samples (Fig. 7 data) as CSV:
/// time_ns, cwnd_bytes, bytes_in_flight — header only when untraced.
void write_cwnd_trace_csv(std::ostream& out, const RunResult& run);

/// Writes per-packet inter-arrival gaps (ms) as a single CSV column.
void write_gaps_csv(std::ostream& out, const RunResult& run);

/// One-row experiment summary (headers on request): goodput, drops,
/// losses, pacing metrics.
void write_summary_csv(std::ostream& out, const std::string& label,
                       const RunResult& run, bool header);

/// Writes a run's path trace (RunResult::trace: spans and recovery
/// samples) as path-qlog JSONL — header only when the run was untraced.
void write_path_qlog(std::ostream& out, const RunResult& run,
                     const std::string& title);

/// Same trace as CSV (obs exporter column set) — header row only when the
/// run was untraced.
void write_path_trace_csv(std::ostream& out, const RunResult& run);

}  // namespace quicsteps::framework
