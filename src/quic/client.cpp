#include "quic/client.hpp"

namespace quicsteps::quic {

void Client::on_datagram(const net::Packet& pkt) {
  if (pkt.kind != net::PacketKind::kQuicData) return;
  const sim::Time now = loop_.now();

  if (stats_.first_packet_time.is_infinite()) {
    stats_.first_packet_time = now;
  }
  stats_.last_packet_time = now;

  const bool fresh =
      ack_manager_.on_packet_received(pkt.packet_number, true, now);
  if (!fresh) {
    ++stats_.duplicate_packets;
  } else {
    ++stats_.data_packets_received;
    if (pkt.stream_offset >= 0) {
      stats_.payload_bytes_received +=
          received_.add(pkt.stream_offset, pkt.stream_length);
    }
    if (complete() && stats_.completion_time.is_infinite()) {
      stats_.completion_time = now;
    }
  }

  if (ack_manager_.ack_due_now()) {
    send_ack_now();
  } else {
    arm_ack_timer();
  }
}

void Client::send_ack_now() {
  ack_timer_.cancel();
  if (!ack_manager_.has_pending()) return;
  net::Packet ack;
  ack.id = (std::uint64_t{config_.flow} << 40) + next_ack_id_++;
  ack.flow = config_.flow;
  ack.kind = net::PacketKind::kQuicAck;
  ack.size_bytes = kAckPacketSize;
  // The example clients consume data as it arrives, so the grant is
  // contiguous-consumed + static credit.
  const std::int64_t max_data =
      config_.flow_control_credit > 0
          ? received_.contiguous_prefix() + config_.flow_control_credit
          : 0;
  // The kernel entry: the frame is rendered in place in the slab.
  const net::PacketSlab::Ref ref = slab_.put(ack);
  ack_manager_.build_ack(loop_.now(), max_data, slab_.ack(ref));
  ++stats_.acks_sent;
  if (ack_egress_ != nullptr) {
    ack_egress_->deliver_ref(slab_, ref);
  } else {
    slab_.retire(ref);
  }
}

void Client::arm_ack_timer() {
  if (ack_timer_.pending()) return;
  const sim::Time deadline = ack_manager_.ack_deadline();
  if (deadline.is_infinite()) return;
  ack_timer_ = loop_.schedule_at<&Client::send_ack_now>(
      deadline, sim::EventClass::kGeneral, this);
}

}  // namespace quicsteps::quic
