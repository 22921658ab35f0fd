#include "quic/connection.hpp"

#include <algorithm>
#include <utility>

namespace quicsteps::quic {

Connection::Connection(Config config)
    : config_(config),
      cc_(cc::make_controller(config.cc)),
      pacer_(pacing::make_pacer(config.pacer)) {
  peer_max_data_ = config_.flow_control_credit > 0
                       ? config_.flow_control_credit
                       : std::int64_t{1} << 60;
  available_bytes_ =
      config_.app_limited_source ? 0 : config_.total_payload_bytes;
}

bool Connection::has_data_to_send() const {
  if (!retransmit_queue_.empty()) return true;
  if (next_offset_ >= config_.total_payload_bytes) return false;
  return next_offset_ < peer_max_data_ && next_offset_ < available_bytes_;
}

bool Connection::flow_control_blocked() const {
  return retransmit_queue_.empty() &&
         next_offset_ < config_.total_payload_bytes &&
         next_offset_ >= peer_max_data_;
}

bool Connection::congestion_blocked() const {
  return !probe_owed_ &&
         sent_.bytes_in_flight() + kDatagramSize > cc_->cwnd_bytes();
}

net::DataRate Connection::pacing_rate() const {
  if (cc_->has_own_pacing_rate()) return cc_->pacing_rate();
  if (!rtt_.has_samples()) {
    // Before the first sample the initial window goes out unpaced, as the
    // real stacks do.
    return net::DataRate::infinite();
  }
  const auto srtt = sim::max(rtt_.smoothed(), sim::Duration::micros(1));
  return net::DataRate::bytes_per(cc_->cwnd_bytes(), srtt) *
         config_.pacing_rate_factor;
}

sim::Time Connection::pacer_release_time(sim::Time now) {
  return pacer_->earliest_send_time(now, kDatagramSize, pacing_rate());
}

Connection::Chunk Connection::next_chunk() {
  if (!retransmit_queue_.empty()) {
    Chunk chunk = retransmit_queue_.front();
    retransmit_queue_.pop_front();
    ++stats_.packets_retransmitted;
    return chunk;
  }
  const std::int64_t remaining =
      std::min(config_.total_payload_bytes, available_bytes_) - next_offset_;
  Chunk chunk{next_offset_, std::min<std::int64_t>(kPayloadPerDatagram,
                                                   remaining),
              false};
  next_offset_ += chunk.length;
  chunk.fin = next_offset_ >= config_.total_payload_bytes;
  return chunk;
}

net::Packet Connection::build_packet(sim::Time send_time,
                                     sim::Time pacer_commit_time) {
  const Chunk chunk = next_chunk();
  probe_owed_ = false;

  net::Packet pkt;
  pkt.id = next_packet_id_++;
  pkt.flow = config_.flow;
  pkt.kind = net::PacketKind::kQuicData;
  pkt.packet_number = next_pn_++;
  pkt.stream_offset = chunk.offset;
  pkt.stream_length = chunk.length;
  pkt.fin = chunk.fin;
  // Wire size: payload plus fixed header/AEAD overhead.
  pkt.size_bytes = chunk.length + (kDatagramSize - kPayloadPerDatagram);
  pkt.expected_send_time = pacer_commit_time;

  SentPacket sent;
  sent.pn = pkt.packet_number;
  sent.bytes = pkt.size_bytes;
  sent.time_sent = send_time;
  sent.stream_offset = chunk.offset;
  sent.stream_length = chunk.length;
  sent.fin = chunk.fin;
  sent.delivered_at_send = delivered_bytes_;
  sent.delivered_time_at_send = delivered_time_;
  sent.app_limited_at_send = app_limited_;
  const std::int64_t in_flight_before = sent_.bytes_in_flight();
  sent_.add(sent);

  cc_->on_packet_sent(send_time, pkt.packet_number, pkt.size_bytes,
                      in_flight_before);
  pacer_->on_packet_sent(pacer_commit_time, pkt.size_bytes, pacing_rate());

  // Once new data flows again the app-limited period ends.
  if (has_data_to_send()) app_limited_ = false;

  ++stats_.packets_sent;
  stats_.bytes_sent += pkt.size_bytes;
  return pkt;
}

void Connection::on_ack(const net::TransportAck& ack, sim::Time now) {
  ++stats_.acks_received;
  if (ack.max_data > 0) {
    peer_max_data_ = std::max(peer_max_data_, ack.max_data);
  }

  // Beyond its stream range, only the largest newly acked packet matters.
  SentPacket largest_pkt;
  bool any_acked = false;
  const std::int64_t acked_bytes =
      sent_.take_acked(ack.blocks, [&](const SentPacket& acked) {
        if (!any_acked || acked.pn > largest_pkt.pn) largest_pkt = acked;
        any_acked = true;
        if (acked.stream_offset >= 0) {
          acked_.add(acked.stream_offset, acked.stream_length);
        }
      });
  if (!any_acked) return;  // pure duplicate
  pto_count_ = 0;

  const bool new_largest =
      !has_acked_anything_ || largest_pkt.pn > largest_acked_;
  if (new_largest) {
    largest_acked_ = largest_pkt.pn;
    has_acked_anything_ = true;
    if (largest_pkt.ack_eliciting) {
      rtt_.update(now - largest_pkt.time_sent, ack.ack_delay);
    }
  }

  // Delivery-rate sample (BBR input): bytes delivered between the largest
  // acked packet's send snapshot and now.
  delivered_bytes_ += acked_bytes;
  net::DataRate bw_sample;
  if (delivered_time_ < now &&
      largest_pkt.delivered_time_at_send < now) {
    bw_sample = net::DataRate::bytes_per(
        delivered_bytes_ - largest_pkt.delivered_at_send,
        now - largest_pkt.delivered_time_at_send);
  }
  delivered_time_ = now;

  if (transfer_complete() && stats_.completion_time.is_infinite()) {
    stats_.completion_time = now;
  }

  // Loss detection keyed on the new largest acked.
  auto loss_result = loss_.detect(sent_, largest_acked_, rtt_, now);
  loss_timer_ = loss_result.next_loss_time;
  if (!loss_result.lost.empty()) {
    handle_lost(std::move(loss_result.lost),
                loss_result.persistent_congestion, now);
  }

  cc::AckSample sample;
  sample.now = now;
  sample.acked_bytes = acked_bytes;
  sample.largest_acked_pn = largest_pkt.pn;
  sample.largest_acked_sent_time = largest_pkt.time_sent;
  sample.latest_rtt = rtt_.has_samples() ? rtt_.latest() : sim::Duration::zero();
  sample.smoothed_rtt = rtt_.smoothed();
  sample.min_rtt = rtt_.min();
  sample.bytes_in_flight = sent_.bytes_in_flight();
  sample.bandwidth_sample = bw_sample;
  sample.app_limited = largest_pkt.app_limited_at_send;
  sample.delivered_bytes = delivered_bytes_;
  cc_->on_ack(sample);
  publish_recovery(now, obs::RecoveryEvent::kAck, largest_pkt.pn,
                   acked_bytes);
}

void Connection::handle_lost(std::vector<SentPacket> lost, bool persistent,
                             sim::Time now) {
  cc::LossSample sample;
  sample.now = now;
  sample.persistent_congestion = persistent;
  for (auto& pkt : lost) {
    sample.lost_bytes += pkt.bytes;
    ++sample.lost_packets;
    sample.largest_lost_pn = std::max(sample.largest_lost_pn, pkt.pn);
    sample.largest_lost_sent_time =
        sim::max(sample.largest_lost_sent_time, pkt.time_sent);
    if (pkt.stream_offset >= 0) {
      retransmit_queue_.push_back(
          Chunk{pkt.stream_offset, pkt.stream_length, pkt.fin});
    }
    ++stats_.packets_declared_lost;
    stats_.bytes_declared_lost += pkt.bytes;
  }
  sample.bytes_in_flight = sent_.bytes_in_flight();
  cc_->on_loss(sample);
  publish_recovery(now, obs::RecoveryEvent::kLoss,
                   static_cast<std::uint64_t>(sample.lost_packets),
                   sample.lost_bytes);
}

sim::Time Connection::next_timer_deadline() const {
  sim::Time deadline = loss_timer_;
  if (!sent_.empty()) {
    deadline = sim::min(deadline, loss_.pto_deadline(sent_, rtt_, pto_count_));
  }
  return deadline;
}

void Connection::on_timer(sim::Time now) {
  // Time-threshold loss detection.
  if (!loss_timer_.is_infinite() && now >= loss_timer_) {
    auto result = loss_.detect(sent_, largest_acked_, rtt_, now);
    loss_timer_ = result.next_loss_time;
    if (!result.lost.empty()) {
      handle_lost(std::move(result.lost), result.persistent_congestion, now);
      return;
    }
  }
  // Probe timeout: retransmit the oldest outstanding chunk as a probe.
  if (!sent_.empty() &&
      now >= loss_.pto_deadline(sent_, rtt_, pto_count_)) {
    ++pto_count_;
    ++stats_.pto_fired;
    const SentPacket* oldest = sent_.oldest();
    if (oldest != nullptr && oldest->stream_offset >= 0) {
      retransmit_queue_.push_front(
          Chunk{oldest->stream_offset, oldest->stream_length, oldest->fin});
      probe_owed_ = true;
    }
  }
}

void Connection::publish_recovery(sim::Time now, obs::RecoveryEvent event,
                                  std::uint64_t packets, std::int64_t bytes) {
  if (trace_bus_ == nullptr) return;
  obs::RecoverySample sample;
  sample.at = now;
  sample.smoothed_rtt = rtt_.smoothed();
  sample.pacing_rate = pacing_rate();
  sample.cwnd = cc_->cwnd_bytes();
  sample.bytes_in_flight = sent_.bytes_in_flight();
  sample.packets = packets;
  sample.bytes = bytes;
  sample.flow = config_.flow;
  sample.event = event;
  sample.component = trace_component_;
  trace_bus_->publish(sample);
}

}  // namespace quicsteps::quic
