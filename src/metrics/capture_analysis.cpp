#include "metrics/capture_analysis.hpp"

#include <algorithm>

namespace quicsteps::metrics {

namespace {
/// Gaps at/below this bound count as back-to-back. The theoretical minimum
/// at 1 Gbit/s is ~12 us; 30 us absorbs timestamp jitter.
constexpr sim::Duration kBackToBackBound = sim::Duration::micros(30);
/// Gaps below this threshold chain packets into a train (the paper's rule:
/// < 0.1 ms).
constexpr sim::Duration kTrainThreshold = sim::Duration::micros(100);
}  // namespace

double TrainReport::fraction_in_trains_up_to(std::size_t n) const {
  if (total_packets == 0) return 0.0;
  std::int64_t covered = 0;
  for (const auto& [len, packets] : packets_by_length) {
    if (len <= n) covered += packets;
  }
  return static_cast<double>(covered) / static_cast<double>(total_packets);
}

std::size_t TrainReport::max_train_length() const {
  return packets_by_length.empty() ? 0 : packets_by_length.rbegin()->first;
}

void CaptureAnalyzer::add(const net::Packet& pkt) {
  if (pkt.flow != config_.flow) return;
  if (pkt.kind != net::PacketKind::kQuicData &&
      pkt.kind != net::PacketKind::kTcpData) {
    return;
  }

  // Precision offset: GSO segments beyond the first carry no per-packet
  // expectation and are skipped.
  if (!(pkt.gso_buffer_id != 0 && pkt.gso_segment_index != 0)) {
    const sim::Duration offset = pkt.wire_time - pkt.expected_send_time;
    if (config_.lite) {
      offset_stream_.push(offset.to_millis());
    } else {
      offsets_ms_.push_back(offset.to_millis());
    }
  }

  if (data_packets_ > 0) {
    const sim::Duration gap = pkt.wire_time - last_time_;
    if (config_.lite) {
      gap_stream_.push(gap.to_millis());
    } else {
      gaps_ms_.push_back(gap.to_millis());
    }
    if (gap <= kBackToBackBound) ++b2b_gaps_;
    if (gap < sim::Duration::micros(1500)) ++below_1500us_gaps_;
    if (gap < kTrainThreshold) {
      ++current_train_;
    } else {
      auto it = std::lower_bound(
          packets_by_length_.begin(), packets_by_length_.end(),
          current_train_,
          [](const auto& entry, std::size_t len) { return entry.first < len; });
      if (it == packets_by_length_.end() || it->first != current_train_) {
        it = packets_by_length_.insert(it, {current_train_, 0});
      }
      it->second += static_cast<std::int64_t>(current_train_);
      current_train_ = 1;
    }
  } else {
    current_train_ = 1;
  }
  last_time_ = pkt.wire_time;
  ++data_packets_;
}

CaptureAnalysis CaptureAnalyzer::finish() const {
  CaptureAnalysis out;

  const std::size_t gap_count =
      config_.lite ? gap_stream_.count() : gaps_ms_.size();
  out.gaps.gaps_ms = gaps_ms_;  // empty in lite mode
  if (gap_count > 0) {
    const double n = static_cast<double>(gap_count);
    out.gaps.back_to_back_fraction = static_cast<double>(b2b_gaps_) / n;
    out.gaps.below_1500us_fraction =
        static_cast<double>(below_1500us_gaps_) / n;
    out.gaps.summary_ms =
        config_.lite ? gap_stream_.summary() : summarize(out.gaps.gaps_ms);
  }

  out.trains.packets_by_length.insert(packets_by_length_.begin(),
                                      packets_by_length_.end());
  if (data_packets_ > 0) {
    // Close the open train without disturbing the incremental state.
    out.trains.packets_by_length[current_train_] +=
        static_cast<std::int64_t>(current_train_);
  }
  out.trains.total_packets = data_packets_;

  out.precision.offsets_ms = offsets_ms_;  // empty in lite mode
  if (config_.lite) {
    out.precision.samples = offset_stream_.count();
    out.precision.summary_ms = offset_stream_.summary();
  } else {
    out.precision.samples = out.precision.offsets_ms.size();
    out.precision.summary_ms = summarize(out.precision.offsets_ms);
  }
  out.precision.precision_ms = out.precision.summary_ms.stddev;

  out.wire_data_packets = data_packets_;
  return out;
}

CaptureAnalysis CaptureAnalyzer::analyze(
    const std::vector<net::Packet>& capture) const {
  CaptureAnalyzer pass(config_);
  for (const auto& pkt : capture) pass.add(pkt);
  return pass.finish();
}

std::size_t FlowCaptureDemux::add_flow(std::uint32_t flow,
                                       CaptureAnalyzer::Config config) {
  config.flow = flow;
  index_.add(flow);
  slots_.push_back(Slot{flow, CaptureAnalyzer(config)});
  return slots_.size() - 1;
}

int FlowCaptureDemux::add(const net::Packet& pkt) {
  const std::uint32_t slot = index_.find(pkt.flow);
  if (slot == net::FlowIndex::kNone) return -1;
  slots_[slot].analyzer.add(pkt);
  return static_cast<int>(slot);
}

void FlowCaptureDemux::analyze(const std::vector<net::Packet>& capture) {
  for (const auto& pkt : capture) add(pkt);
}

}  // namespace quicsteps::metrics
