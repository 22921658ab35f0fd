#include "tcp/tcp_connection.hpp"

#include <algorithm>
#include <vector>

namespace quicsteps::tcp {

namespace {
/// SACK reordering window in segments: a hole is lost once this many newer
/// segments are acked.
constexpr int kDupackThreshold = 3;
/// RACK-style reordering window in smoothed RTTs.
constexpr double kTimeThreshold = 9.0 / 8.0;
}  // namespace

TcpConnection::TcpConnection(Config config)
    : config_(config),
      total_segments_((config.total_payload_bytes + kPayloadPerSegment - 1) /
                      kPayloadPerSegment) {
  // Classic HyStart (Linux flavor): checks the delay signal after a few
  // samples per round and exits immediately — no multi-round CSS dwell.
  // This is why kernel TCP barely overshoots in slow start (Table 1's ~16
  // drops) while the HyStart++ QUIC stacks overshoot by hundreds.
  config_.cc.hystart_config.css_rounds = 0;
  config_.cc.hystart_config.n_rtt_sample = 2;
  // Linux packet-counting slow start: +1 MSS per ACK, 1.5x per RTT under
  // delayed ACKs.
  config_.cc.slow_start_ack_divisor = 2;
  cc_ = cc::make_controller(config_.cc);
}

bool TcpConnection::has_data_to_send() const {
  return !retransmit_queue_.empty() ||
         next_seq_ < static_cast<std::uint64_t>(total_segments_);
}

bool TcpConnection::congestion_blocked() const {
  return bytes_in_flight_ + kSegmentSize > cc_->cwnd_bytes();
}

net::Packet TcpConnection::build_segment(sim::Time now) {
  std::uint64_t seq;
  bool retransmission = false;
  if (!retransmit_queue_.empty()) {
    seq = retransmit_queue_.front();
    retransmit_queue_.pop_front();
    retransmission = true;
    ++stats_.segments_retransmitted;
  } else {
    seq = next_seq_++;
  }

  const std::int64_t payload =
      std::min<std::int64_t>(kPayloadPerSegment,
                             config_.total_payload_bytes -
                                 static_cast<std::int64_t>(seq) *
                                     kPayloadPerSegment);
  net::Packet pkt;
  pkt.id = next_packet_id_++;
  pkt.flow = config_.flow;
  pkt.kind = net::PacketKind::kTcpData;
  pkt.packet_number = seq;
  pkt.stream_offset = static_cast<std::int64_t>(seq) * kPayloadPerSegment;
  pkt.stream_length = payload;
  pkt.size_bytes = payload + (kSegmentSize - kPayloadPerSegment);
  pkt.fin = seq + 1 == static_cast<std::uint64_t>(total_segments_);

  outstanding_[seq] = Outstanding{now, pkt.size_bytes, false, retransmission};
  bytes_in_flight_ += pkt.size_bytes;
  cc_->on_packet_sent(now, seq, pkt.size_bytes,
                      bytes_in_flight_ - pkt.size_bytes);
  ++stats_.segments_sent;
  return pkt;
}

void TcpConnection::on_ack(const net::TransportAck& ack, sim::Time now) {
  std::int64_t acked_bytes = 0;
  std::uint64_t largest_acked = 0;
  sim::Time largest_sent_time;
  bool largest_was_retransmitted = false;
  bool any = false;

  for (const auto& block : ack.blocks) {
    if (block.first == 0) {
      cumulative_acked_ = std::max(cumulative_acked_, block.last + 1);
    }
    auto it = outstanding_.lower_bound(block.first);
    while (it != outstanding_.end() && it->first <= block.last) {
      acked_bytes += it->second.bytes;
      bytes_in_flight_ -= it->second.bytes;
      if (!any || it->first > largest_acked) {
        largest_acked = it->first;
        largest_sent_time = it->second.time_sent;
        largest_was_retransmitted = it->second.retransmitted;
      }
      any = true;
      it = outstanding_.erase(it);
    }
  }
  if (transfer_complete() && stats_.completion_time.is_infinite()) {
    stats_.completion_time = now;
  }
  if (!any) return;
  rto_count_ = 0;
  highest_sacked_ = std::max(highest_sacked_, largest_acked);

  // Karn's rule: no RTT sample from retransmitted segments.
  if (!largest_was_retransmitted) {
    rtt_.update(now - largest_sent_time, ack.ack_delay);
  }

  run_loss_detection(now);

  cc::AckSample sample;
  sample.now = now;
  sample.acked_bytes = acked_bytes;
  sample.largest_acked_pn = largest_acked;
  sample.largest_acked_sent_time = largest_sent_time;
  sample.latest_rtt = rtt_.has_samples() ? rtt_.latest() : sim::Duration::zero();
  sample.smoothed_rtt = rtt_.smoothed();
  sample.min_rtt = rtt_.min();
  sample.bytes_in_flight = bytes_in_flight_;
  cc_->on_ack(sample);
}

void TcpConnection::run_loss_detection(sim::Time now) {
  // SACK/RACK-style: a hole is lost once kDupackThreshold newer segments
  // were acked, or once it is older than the reordering time window.
  if (highest_sacked_ == 0 && outstanding_.empty()) return;
  const sim::Duration window =
      sim::max(rtt_.smoothed(), rtt_.latest()) * kTimeThreshold;
  const sim::Time lost_before = now - window;

  cc::LossSample sample;
  sample.now = now;
  std::vector<std::uint64_t> lost;
  sim::Time next_loss = sim::Time::infinite();
  for (auto& [seq, info] : outstanding_) {
    if (seq >= highest_sacked_) break;
    // RACK rule: a RETRANSMITTED segment keeps its old (small) sequence
    // number, so sequence-distance to newer SACKs says nothing about it —
    // judge it only by the time window from its own (re)send time.
    const bool seq_lost = !info.retransmitted &&
                          highest_sacked_ >= seq + kDupackThreshold;
    if (seq_lost || info.time_sent <= lost_before) {
      lost.push_back(seq);
      sample.lost_bytes += info.bytes;
      ++sample.lost_packets;
      sample.largest_lost_pn = seq;
      sample.largest_lost_sent_time =
          sim::max(sample.largest_lost_sent_time, info.time_sent);
    } else {
      next_loss = sim::min(next_loss, info.time_sent + window);
    }
  }
  loss_timer_ = next_loss;
  if (lost.empty()) return;

  for (std::uint64_t seq : lost) {
    bytes_in_flight_ -= outstanding_.at(seq).bytes;
    outstanding_.erase(seq);
    retransmit_queue_.push_back(seq);
    ++stats_.segments_declared_lost;
  }
  std::sort(retransmit_queue_.begin(), retransmit_queue_.end());
  sample.bytes_in_flight = bytes_in_flight_;
  cc_->on_loss(sample);
}

sim::Time TcpConnection::next_timer_deadline() const {
  sim::Time deadline = loss_timer_;
  if (!outstanding_.empty()) {
    // RTO: conservative lower bound of 200 ms (Linux TCP_RTO_MIN), doubled
    // per backoff.
    sim::Duration rto =
        sim::max(rtt_.pto_interval(), sim::Duration::millis(200));
    for (int i = 0; i < rto_count_; ++i) rto = rto * 2;
    deadline = sim::min(deadline, outstanding_.begin()->second.time_sent + rto);
  }
  return deadline;
}

void TcpConnection::on_timer(sim::Time now) {
  if (!loss_timer_.is_infinite() && now >= loss_timer_) {
    run_loss_detection(now);
    return;
  }
  if (outstanding_.empty()) return;
  // Retransmission timeout.
  ++rto_count_;
  ++stats_.rto_fired;
  const std::uint64_t seq = outstanding_.begin()->first;
  bytes_in_flight_ -= outstanding_.begin()->second.bytes;
  outstanding_.erase(outstanding_.begin());
  retransmit_queue_.push_front(seq);
  ++stats_.segments_declared_lost;

  cc::LossSample sample;
  sample.now = now;
  sample.lost_bytes = kSegmentSize;  // full-size estimate for the probe
  sample.lost_packets = 1;
  sample.largest_lost_pn = seq;
  sample.largest_lost_sent_time = now;  // forces a fresh congestion event
  sample.bytes_in_flight = bytes_in_flight_;
  sample.persistent_congestion = rto_count_ >= 2;
  cc_->on_loss(sample);
}

}  // namespace quicsteps::tcp
