#include "quic/server.hpp"

namespace quicsteps::quic {

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
    if (egress_ != nullptr) egress_->deliver(std::move(pkt));
  }
  planned_release_ = sim::Time::infinite();
  connection_.set_app_limited();
}

void ReferenceServer::rearm_loss_timer() {
  const sim::Time deadline = connection_.next_timer_deadline();
  if (loss_timer_.pending()) {
    // Lazy re-arm (same discipline as StackServer): a deadline that only
    // moved later keeps the armed timer; the fire handler re-checks.
    if (deadline >= armed_loss_deadline_) return;
    loss_timer_.cancel();
  }
  if (deadline.is_infinite()) return;
  armed_loss_deadline_ = deadline;
  loss_timer_ = loop_.schedule_at<&ReferenceServer::on_loss_timer>(
      deadline, sim::EventClass::kTimer, this);
}

void ReferenceServer::on_loss_timer() {
  const sim::Time deadline = connection_.next_timer_deadline();
  if (deadline.is_infinite()) return;
  if (loop_.now() < deadline) {
    armed_loss_deadline_ = deadline;
    loss_timer_ = loop_.schedule_at<&ReferenceServer::on_loss_timer>(
        deadline, sim::EventClass::kTimer, this);
    return;
  }
  connection_.on_timer(loop_.now());
  rearm_loss_timer();
  attempt_send();
}

}  // namespace quicsteps::quic
