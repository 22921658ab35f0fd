// The traced pass: re-drives one simulation through the library's public
// layer APIs, wired exactly as framework::run_flows wires it, and times
// each layer from the outside.
//
//   framework.setup   framework::Network construction
//   metrics.tap       FlowCaptureDemux registration, then a tap callback
//                     wrapping FlowCaptureDemux::add and
//                     DeterminismHasher::add_i64 (plus the fleet time
//                     series feed when telemetry is on)
//   framework.start   Network::start
//   sim.<class>       sim::EventLoop::run_one() stepped one event at a
//                     time, each call charged to the sim::EventClass whose
//                     LoopStats::executed count moved, tap time subtracted
//   obs.telemetry     trace bus / time series set-up, finalize, span fold,
//                     per-flow trace filter, summaries and fleet sketches
//   framework.extract FlowEndpoint::fill_result, hashes, drop attribution,
//                     fairness, counters table and registry
//   metrics.finish    FlowCaptureDemux::finish
//   obs.health        framework::fleet_health
//   framework.teardown destroying the network, the loop and the tap state
//
// Stepping stops when run_one() returns false or now() passes
// Network::deadline(); the one event that may run past the deadline cannot
// reach the hashes, because the tap ignores packets stamped after it.
// next_event_time() is never called per event: it scans a calendar bucket.
// Spans are summed in memory and reported once, at the end.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "framework/flows.hpp"
#include "sim/event_loop.hpp"

namespace perfbench {

/// Where one traced run's wall time went. The spans are disjoint.
struct Ledger {
  enum Span : std::size_t {
    kSetup,
    kStart,
    kExtract,
    kTeardown,
    kTap,
    kFinish,
    kTelemetry,
    kHealth,
    kSpanCount,
  };
  std::array<double, kSpanCount> span_s{};
  /// run_one() self time and call count per sim::EventClass.
  std::array<double, quicsteps::sim::kEventClassCount> class_s{};
  std::array<std::int64_t, quicsteps::sim::kEventClassCount> class_events{};
  /// Wire packets the tap callback handled.
  std::int64_t tap_pkts = 0;
  /// From before the event loop is built to after teardown.
  double wall_s = 0.0;

  double loop_s() const;
  double covered_s() const;
  Ledger& operator+=(const Ledger& other);
};

struct TracedRun {
  quicsteps::framework::MultiFlowResult result;
  std::string health_json;
  Ledger ledger;
};

/// Runs `config` once under the benchmark's own tracing. The run always
/// ends with framework::fleet_health; only the fleet workload's untraced
/// runs make that call too.
TracedRun traced_run(const quicsteps::framework::MultiFlowConfig& config);

}  // namespace perfbench
