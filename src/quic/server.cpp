#include "quic/server.hpp"

namespace quicsteps::quic {

void ReferenceServer::deliver_ref(net::PacketSlab& slab,
                                  net::PacketSlab::Ref ref) {
  const bool ack = slab.at(ref).kind == net::PacketKind::kQuicAck;
  if (ack) connection_.on_ack(slab.ack(ref), loop_.now());
  slab.retire(ref);
  if (!ack) return;
  rearm_loss_timer();
  attempt_send();
}

void ReferenceServer::attempt_send() {
  const sim::Time now = loop_.now();
  while (connection_.has_data_to_send()) {
    if (connection_.congestion_blocked()) {
      planned_release_ = sim::Time::infinite();
      return;  // an ACK will wake us
    }
    sim::Time intended = connection_.pacer_release_time(now);
    // If we armed a timer for this packet, keep the pre-sleep intent even
    // when the wakeup landed late (that lateness IS the precision error).
    if (!planned_release_.is_infinite() && planned_release_ <= now) {
      intended = planned_release_;
      planned_release_ = sim::Time::infinite();
    }
    if (intended > now) {
      if (!send_timer_.pending()) {
        planned_release_ = intended;
        send_timer_ =
            timers_ != nullptr
                ? timers_->arm(intended, &ReferenceServer::on_pacer_timer, this)
                : loop_.schedule_at<&ReferenceServer::attempt_send>(
                      intended, sim::EventClass::kTransport, this);
      }
      return;
    }
    net::Packet pkt = connection_.build_packet(now, intended);
    QUICSTEPS_TRACE_SPAN(trace_bus_, obs::TraceStage::kPacerRelease,
                         trace_component_, now, pkt);
    rearm_loss_timer();
    if (egress_ != nullptr) egress_->deliver(pkt);
  }
  planned_release_ = sim::Time::infinite();
  connection_.set_app_limited();
}

void ReferenceServer::rearm_loss_timer() {
  loss_timer_.arm<&ReferenceServer::on_loss_timer>(
      loop_, connection_.next_timer_deadline(), this);
}

void ReferenceServer::on_loss_timer() {
  if (loop_.now() < connection_.next_timer_deadline()) {
    rearm_loss_timer();  // woken early: the deadline moved later
    return;
  }
  connection_.on_timer(loop_.now());
  rearm_loss_timer();
  attempt_send();
}

}  // namespace quicsteps::quic
