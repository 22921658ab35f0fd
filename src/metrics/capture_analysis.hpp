// Single-pass capture analysis: the paper's per-run capture metrics.
//
// Every run needs four reports from the same tap capture: inter-packet
// gaps, packet trains, pacing precision, and the wire data-packet count.
// CaptureAnalyzer computes all four in one incremental pass: feed packets
// with add() — directly from WireTap::set_on_packet, or via analyze() over
// a stored capture — and collect every report at the end with finish().
//
// Only the server's DATA packets of the configured flow count (ACKs flow
// the other way and handshake packets are not part of the steady
// transfer).
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "metrics/stats.hpp"
#include "net/flow_index.hpp"
#include "net/packet.hpp"

namespace quicsteps::metrics {

/// Inter-packet gaps (paper Figures 2, 4, 5, 6, left panels).
struct GapReport {
  /// All inter-packet gaps in milliseconds, capture order.
  std::vector<double> gaps_ms;
  /// Fraction of gaps at or below the back-to-back bound, 30 us
  /// (serialization delay plus measurement slack).
  double back_to_back_fraction = 0.0;
  /// Fraction of gaps below 1.5 ms (the paper's "majority" observation).
  double below_1500us_fraction = 0.0;
  Summary summary_ms;

  Cdf cdf() const { return Cdf(gaps_ms); }
};

/// Packet trains (paper Figures 3, 4, 5, 6, right panels).
///
/// Definition from the paper: all consecutive packets with an inter-packet
/// gap below 0.1 ms each form one packet train; a single isolated packet
/// is a train of length one. The headline metric is the distribution of
/// PACKETS across train lengths (not the distribution of trains), which is
/// how the paper weights its percentages ("packet trains consisting of
/// five packets or less contain 99.9 % of the packets").
struct TrainReport {
  /// packets_by_length[L] = number of PACKETS that sit in trains of
  /// length L.
  std::map<std::size_t, std::int64_t> packets_by_length;
  std::int64_t total_packets = 0;

  /// Fraction of packets in trains of length <= n.
  double fraction_in_trains_up_to(std::size_t n) const;
  std::size_t max_train_length() const;
};

/// Pacing precision (paper Section 4.4).
///
/// The paper compares the sender's intended per-packet send timestamp
/// (logged by the quiche server) with the actual wire timestamp from the
/// sniffer, and reports the STANDARD DEVIATION of the differences — the
/// mean is meaningless because server and sniffer clocks are
/// unsynchronized there. Our simulated clocks ARE synchronized, but we
/// keep the same metric for comparability. GSO hides per-packet
/// expectations (one timestamp per buffer), so segments beyond a buffer's
/// first are skipped.
struct PrecisionReport {
  /// wire_time - expected_send_time per packet, in milliseconds.
  std::vector<double> offsets_ms;
  Summary summary_ms;
  /// The paper's headline number: stddev of the offsets.
  double precision_ms = 0.0;
  std::size_t samples = 0;
};

/// All per-run capture reports, computed together.
struct CaptureAnalysis {
  GapReport gaps;
  TrainReport trains;
  PrecisionReport precision;
  std::int64_t wire_data_packets = 0;
};

class CaptureAnalyzer {
 public:
  struct Config {
    /// Only packets of this flow (and data kind) are analyzed.
    std::uint32_t flow = 1;
    /// Lite mode: stream gap/offset samples through Welford accumulators
    /// instead of retaining them — O(1) memory per flow, for fabric-scale
    /// (10k-flow) runs where N full sample vectors don't fit. The finished
    /// reports keep every aggregate (summaries, fractions, train length
    /// histogram, counts) but their raw sample vectors stay empty, so CDFs
    /// are unavailable.
    bool lite = false;
  };

  CaptureAnalyzer() : CaptureAnalyzer(Config{}) {}
  explicit CaptureAnalyzer(Config config) : config_(config) {}

  /// Feeds one packet in wire order (e.g. from WireTap::set_on_packet).
  void add(const net::Packet& pkt);

  /// Builds every report from the packets seen so far. Non-destructive:
  /// more packets can be added and finish() called again.
  CaptureAnalysis finish() const;

  /// One-shot convenience: single pass over a stored capture.
  CaptureAnalysis analyze(const std::vector<net::Packet>& capture) const;

 private:
  Config config_;

  // Incremental state, updated per data packet. Lite mode fills the
  // streaming accumulators instead of the sample vectors.
  std::vector<double> gaps_ms_;
  std::vector<double> offsets_ms_;
  StreamingSummary gap_stream_;
  StreamingSummary offset_stream_;
  /// Closed trains' packets by train length: (length, packets) pairs
  /// sorted by length. A run sees few distinct lengths, so a closed train
  /// costs a binary search over one short array, not a map node walk.
  std::vector<std::pair<std::size_t, std::int64_t>> packets_by_length_;
  std::size_t b2b_gaps_ = 0;
  std::size_t below_1500us_gaps_ = 0;
  std::size_t current_train_ = 0;  // open train length (0 = no packet yet)
  std::int64_t data_packets_ = 0;
  sim::Time last_time_;
};

/// N-flow single-pass demultiplexer over a shared tap.
//
// A shared bottleneck interleaves every flow's packets in one capture; the
// old competing-flow path re-scanned the whole capture once per flow (N
// full passes, each discarding the (N-1)/N of packets it doesn't own).
// FlowCaptureDemux keeps one CaptureAnalyzer per registered flow and
// routes each packet to its analyzer as it arrives, so an N-flow capture
// is walked exactly once regardless of N. Each flow's finished report is
// bit-identical to a standalone CaptureAnalyzer filtering on that flow.
class FlowCaptureDemux {
 public:
  /// Registers a flow; `config.flow` is overwritten with `flow`. Returns
  /// the flow's slot index (stable; also returned by add()). A duplicate
  /// id gets a slot of its own, but packets keep routing to the first.
  std::size_t add_flow(std::uint32_t flow, CaptureAnalyzer::Config config = {});

  /// Feeds one packet in wire order. Returns the owning flow's slot index,
  /// or -1 when no registered flow matches (the packet is ignored —
  /// whether that is an error is the caller's policy, not the metric's).
  int add(const net::Packet& pkt);

  std::size_t flow_count() const { return slots_.size(); }

  /// Per-flow reports, by slot index. Non-destructive, like
  /// CaptureAnalyzer::finish().
  CaptureAnalysis finish(std::size_t slot) const {
    return slots_[slot].analyzer.finish();
  }

  /// One-shot convenience: single pass over a stored capture.
  void analyze(const std::vector<net::Packet>& capture);

 private:
  struct Slot {
    std::uint32_t flow = 0;
    CaptureAnalyzer analyzer;
  };
  /// In registration order (slot indices are stable); routing a packet is
  /// one dense-index load at any flow count.
  std::vector<Slot> slots_;
  net::FlowIndex index_;
};

}  // namespace quicsteps::metrics
