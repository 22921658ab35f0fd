// Per-run trace digest from a finished trace.
//
// Groups a TraceData's spans by (flow, packet id), one group per wire
// packet, and derives the study's core quantity: the pacing error at every
// stage — span time minus the pacer's intended send time — so "where did
// the schedule slip" is answerable per layer, not just at the tap
// (metrics::PrecisionReport measures only the wire stage; the wire-stage
// statistics here must and do agree with it).
#pragma once

#include <cstdint>
#include <vector>

#include "obs/quantile_sketch.hpp"
#include "obs/trace.hpp"

namespace quicsteps::obs {

/// Per-stage pacing-error distribution (microseconds).
struct StageErrorReport {
  TraceStage stage = TraceStage::kPacerRelease;
  QuantileSketch error_us;
  double mean_us() const {
    return error_us.count() == 0
               ? 0.0
               : static_cast<double>(error_us.sum()) /
                     static_cast<double>(error_us.count());
  }
};

/// The per-run trace digest the metrics registry publishes, computed in
/// two passes straight off the span stream.
struct TraceSummary {
  /// (flow, packet id) groups: one per sender packet (a retransmission is
  /// a fresh id) and one per ACK.
  std::int64_t packets = 0;
  /// Groups that start at the pacer and end at delivery.
  std::int64_t complete_chains = 0;
  /// Pacing error per stage over every packet that carries a pacer intent,
  /// stages in path order. Only stages that observed such a packet appear.
  std::vector<StageErrorReport> errors;
};
TraceSummary summarize_trace(const TraceData& data);

}  // namespace quicsteps::obs
