#include "tcp/tcp_server.hpp"

namespace quicsteps::tcp {

namespace {
/// TSQ limit: segments allowed in the device queue at once.
constexpr int kTsqBurst = 3;
}  // namespace

void TcpServer::attempt_send() {
  const sim::Time now = loop_.now();
  int burst = 0;
  while (connection_.has_data_to_send() && !connection_.congestion_blocked()) {
    if (burst >= kTsqBurst) {
      // TSQ: wait for TX completion of the enqueued burst before handing
      // the device more segments.
      if (!tsq_timer_.pending()) {
        const sim::Duration drain =
            config_.line_rate.transmit_time(burst * kSegmentSize);
        tsq_timer_ = loop_.schedule_at<&TcpServer::attempt_send>(
            now + drain, sim::EventClass::kGeneral, this);
      }
      break;
    }
    net::Packet pkt = connection_.build_segment(now);
    ++burst;
    if (egress_ != nullptr) egress_->deliver(std::move(pkt));
  }
  rearm_loss_timer();
}

void TcpServer::rearm_loss_timer() {
  loss_timer_.cancel();
  const sim::Time deadline = connection_.next_timer_deadline();
  if (deadline.is_infinite()) return;
  loss_timer_ = loop_.schedule_at<&TcpServer::on_loss_timer>(
      deadline, sim::EventClass::kGeneral, this);
}

void TcpServer::on_loss_timer() {
  connection_.on_timer(loop_.now());
  rearm_loss_timer();
  attempt_send();
}

}  // namespace quicsteps::tcp
