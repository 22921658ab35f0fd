// Packet and byte conservation auditing over a chain of counted stages.
//
// Every element of the egress path (qdisc under test, bottleneck TBF,
// netem delay) owns a net::Counters; conservation means the books balance:
//
//   per stage   packets_in == packets_out + packets_dropped + queued,
//               with queued >= 0 (same in bytes), and when the stage can
//               report its live queue depth, queued matches it exactly;
//   per edge    a stage that feeds another synchronously (no wire between
//               them) hands over every packet: downstream.in == upstream.out.
//
// A component that duplicates, leaks, or silently eats a packet breaks one
// of these equations no matter how it miscounts — the per-stage identity
// catches self-inconsistent books, the edge equation catches books that
// are internally consistent but lie about the neighbour. Violations funnel
// through check::audit_fail(), so a run under the default handler stops at
// the first unbalanced packet.
//
// The auditor reads counters only; it is wired up after a run (see
// framework::Runner) or around a unit under test (tests/check_test.cpp).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "net/counters.hpp"

namespace quicsteps::check {

class ConservationAuditor {
 public:
  /// Reports a stage's live queue depth in packets (e.g. TBF backlog,
  /// netem in-flight count) at audit time.
  using BacklogFn = std::function<std::int64_t()>;

  /// Registers a counted stage; returns its index for add_edge(). The
  /// counters must outlive the auditor. `backlog_packets` is optional —
  /// without it only sign and edge invariants apply to the stage.
  std::size_t add_stage(std::string name, const net::Counters& counters,
                        BacklogFn backlog_packets = {});

  /// Declares that `upstream` delivers directly (same-instant, no link in
  /// between) into `downstream`: every packet out of one is in the other.
  void add_edge(std::size_t upstream, std::size_t downstream);

  /// Runs every check without reporting; empty result == conservation
  /// holds. Deterministic order: stages first (registration order), then
  /// edges.
  std::vector<std::string> violations() const;

  /// Runs every check and funnels each violation through audit_fail().
  /// Returns the violations for callers that want them anyway.
  std::vector<std::string> audit() const;

 private:
  struct Stage {
    std::string name;
    const net::Counters* counters;
    BacklogFn backlog_packets;
  };
  struct Edge {
    std::size_t upstream;
    std::size_t downstream;
  };

  std::vector<Stage> stages_;
  std::vector<Edge> edges_;
};

}  // namespace quicsteps::check
