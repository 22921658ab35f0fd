// Trace exporters: path-qlog JSONL and CSV.
//
// Path-qlog extends qlog's JSON-SEQ flavor with the kernel-path event
// vocabulary (obs::TraceStage names): one header record carrying the
// component table, then one JSON object per span, with each recovery
// sample rendered as qlog's ACK or loss event plus
// `recovery:metrics_updated` and merged into the spans by time. Times are
// exact decimal microseconds (sim::Time::to_micros_string) — the whole
// point of tracing is the sub-millisecond signal a 6-sig-fig double would
// round away. Output is byte-deterministic: spans are emitted in
// publication order and every lookup walks a vector, never a hash map
// (the analyzer's determinism/unordered-container rule enforces this
// tree-wide).
#pragma once

#include <ostream>
#include <string>

#include "obs/trace.hpp"

namespace quicsteps::obs {

/// Writes the path-qlog header plus every span and recovery sample in
/// `data`, all flows: spans in publication order, each sample before the
/// first span later than it (so after the spans of its own instant).
void write_path_qlog(std::ostream& out, const TraceData& data,
                     const std::string& title);

/// CSV: flow,packet_number,packet_id,stage,component,time_us,intended_us,
/// size_bytes — one row per span, publication order (no recovery
/// samples; the cwnd CSV carries those).
void write_trace_csv(std::ostream& out, const TraceData& data);

}  // namespace quicsteps::obs
