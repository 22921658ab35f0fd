#include "tcp/tcp_client.hpp"

namespace quicsteps::tcp {

void TcpClient::on_datagram(const net::Packet& pkt) {
  if (pkt.kind != net::PacketKind::kTcpData) return;
  const sim::Time now = loop_.now();

  if (stats_.first_packet_time.is_infinite()) {
    stats_.first_packet_time = now;
  }
  stats_.last_packet_time = now;

  const bool fresh =
      ack_manager_.on_packet_received(pkt.packet_number, true, now);
  if (!fresh) {
    ++stats_.duplicate_segments;
    // TCP acknowledges duplicates immediately — without this, a spurious
    // retransmission (same sequence number) would never be confirmed and
    // the sender would stall at min-cwnd behind RTO backoff.
    send_ack_now(true);
    return;
  } else {
    ++stats_.segments_received;
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

void TcpClient::send_ack_now(bool force) {
  ack_timer_.cancel();
  if (!force && !ack_manager_.has_pending()) return;
  net::Packet ack;
  ack.id = (std::uint64_t{config_.flow} << 40) + next_ack_id_++;
  ack.flow = config_.flow;
  ack.kind = net::PacketKind::kTcpAck;
  ack.size_bytes = kAckSegmentSize;
  const net::PacketSlab::Ref ref = slab_.put(ack);
  ack_manager_.build_ack(loop_.now(), 0, slab_.ack(ref));
  ++stats_.acks_sent;
  if (ack_egress_ != nullptr) {
    ack_egress_->deliver_ref(slab_, ref);
  } else {
    slab_.retire(ref);
  }
}

void TcpClient::arm_ack_timer() {
  if (ack_timer_.pending()) return;
  const sim::Time deadline = ack_manager_.ack_deadline();
  if (deadline.is_infinite()) return;
  ack_timer_ = loop_.schedule_at<&TcpClient::on_ack_timer>(
      deadline, sim::EventClass::kGeneral, this);
}

}  // namespace quicsteps::tcp
