#include "stacks/event_loop_model.hpp"

#include <utility>

namespace quicsteps::stacks {

namespace {

quic::Connection::Config merge_config(quic::Connection::Config base,
                                      const StackProfile& profile) {
  base.cc = profile.cc;
  base.pacer = profile.pacer;
  base.pacing_rate_factor = profile.pacing_rate_factor;
  return base;
}

}  // namespace

StackServer::StackServer(sim::EventLoop& loop, net::PacketSlab& slab,
                         kernel::OsModel& os, StackProfile profile,
                         quic::Connection::Config conn_config,
                         net::PacketSink* kernel_egress)
    : loop_(loop),
      os_(os),
      profile_(std::move(profile)),
      connection_(merge_config(conn_config, profile_)),
      socket_(loop, slab, os, kernel_egress),
      pacer_timers_(loop, os, profile_.pacer_timer) {}

void StackServer::charge_syscall() {
  stats_.cpu_time += os_.draw_syscall_cost();
  ++stats_.send_syscalls;
}

void StackServer::on_datagram(const net::Packet& pkt) {
  if (pkt.kind != net::PacketKind::kQuicAck) return;

  // Duty-cycle loop stall: during the busy part of the cycle the loop is
  // off doing other work; everything that arrives queues until it ends.
  const sim::Duration cycle = profile_.loop_busy_cycle;
  if (cycle > sim::Duration::zero()) {
    const std::int64_t phase = loop_.now().ns() % cycle.ns();
    if (phase < profile_.loop_busy_duration.ns()) {
      pending_acks_.push_back(pkt);
      if (!batch_timer_.pending()) {
        batch_timer_ = loop_.schedule_after(
            profile_.loop_busy_duration - sim::Duration::nanos(phase),
            sim::EventClass::kTransport, [this] { process_ack_batch(); });
      }
      return;
    }
  }

  // Stochastic iteration latency: coalesce ACKs for an exponentially drawn
  // window (short typical iterations, heavy-ish tail).
  if (!profile_.recv_batch_window.is_zero()) {
    pending_acks_.push_back(pkt);
    if (!batch_timer_.pending()) {
      const sim::Duration window = os_.rng().exponential_duration(
          profile_.recv_batch_window, profile_.recv_batch_window * 8.0);
      batch_timer_ = loop_.schedule_after(window, sim::EventClass::kTransport,
                                          [this] { process_ack_batch(); });
    }
    return;
  }

  ++stats_.wakeups;
  connection_.on_ack_packet(pkt, loop_.now());
  rearm_loss_timer();
  attempt_send();
}

void StackServer::process_ack_batch() {
  ++stats_.wakeups;
  const sim::Time now = loop_.now();
  while (!pending_acks_.empty()) {
    connection_.on_ack_packet(pending_acks_.front(), now);
    pending_acks_.pop_front();
  }
  rearm_loss_timer();
  attempt_send();
}

void StackServer::attempt_send() {
  if (profile_.pass_txtime) {
    send_with_txtime();
  } else {
    send_waiting();
  }
}

void StackServer::send_with_txtime() {
  // quiche discipline: write everything the window allows NOW; each packet
  // carries the pacer's release time as SO_TXTIME. Whether pacing actually
  // happens is the qdisc's problem (the paper's central quiche finding).
  if (yield_timer_.pending()) return;  // iteration budget cooldown
  const sim::Time now = loop_.now();
  std::vector<net::Packet> gso_batch;
  int written = 0;

  while (connection_.has_data_to_send()) {
    if (connection_.congestion_blocked()) break;
    if (profile_.max_packets_per_iteration > 0 &&
        written >= profile_.max_packets_per_iteration) {
      // Iteration budget exhausted: yield and continue next loop pass.
      // The pause covers at least the socket drain of the batch just
      // written, so consecutive iterations do not merge on the wire.
      const sim::Duration pause =
          sim::Duration::micros(450) +
          os_.rng().exponential_duration(sim::Duration::micros(200),
                                         sim::Duration::millis(2));
      yield_timer_ = loop_.schedule_after(pause, sim::EventClass::kTransport,
                                          [this] { attempt_send(); });
      break;
    }
    ++written;
    const sim::Time release = connection_.pacer_release_time(now);
    net::Packet pkt = connection_.build_packet(now, release);
    pkt.has_txtime = true;
    pkt.txtime = release + profile_.txtime_headroom;
    pkt.expected_send_time = pkt.txtime;
    stats_.cpu_time += os_.config().packet_build_cost;
    QUICSTEPS_TRACE_SPAN(trace_bus_, obs::TraceStage::kPacerRelease,
                         trace_component_, now, pkt);

    if (profile_.gso == kernel::GsoMode::kOff) {
      if (profile_.use_sendmmsg) {
        mmsg_batch_.push_back(std::move(pkt));
        if (static_cast<int>(mmsg_batch_.size()) >= profile_.gso_segments) {
          charge_syscall();
          socket_.sendmmsg(std::move(mmsg_batch_));
          mmsg_batch_.clear();
        }
      } else {
        charge_syscall();
        socket_.sendmsg(std::move(pkt));
      }
    } else {
      gso_batch.push_back(std::move(pkt));
      if (static_cast<int>(gso_batch.size()) >= profile_.gso_segments) {
        flush_gso_batch(std::move(gso_batch));
        gso_batch.clear();
      }
    }
  }
  if (!gso_batch.empty()) flush_gso_batch(std::move(gso_batch));
  if (!mmsg_batch_.empty()) {
    charge_syscall();
    socket_.sendmmsg(std::move(mmsg_batch_));
    mmsg_batch_.clear();
  }
  if (!connection_.has_data_to_send()) connection_.set_app_limited();
  rearm_loss_timer();
}

void StackServer::flush_gso_batch(std::vector<net::Packet> batch) {
  charge_syscall();
  net::DataRate gso_rate;  // zero = stock (unpaced) GSO
  if (profile_.gso == kernel::GsoMode::kPaced) {
    const net::DataRate pacing = connection_.pacing_rate();
    if (!pacing.is_infinite() && !pacing.is_zero()) gso_rate = pacing;
  }
  socket_.sendmsg_gso(std::move(batch), gso_rate);
}

void StackServer::send_waiting() {
  // ngtcp2 / picoquic discipline: the application sleeps until the pacer's
  // release time, with its own timer quality.
  const sim::Time now = loop_.now();

  while (connection_.has_data_to_send()) {
    if (connection_.congestion_blocked()) {
      rearm_loss_timer();
      return;  // ACK arrivals re-enter attempt_send()
    }
    const sim::Time release = connection_.pacer_release_time(now);
    if (release > now) {
      // Sleep until the pacer allows the next packet — through the stack's
      // timer discipline (granularity + slack).
      if (!send_timer_.pending()) {
        send_timer_ = pacer_timers_.arm(release, [this] { attempt_send(); });
      }
      rearm_loss_timer();
      return;
    }
    // Release due: write a small burst (profiles with burst > 1 model
    // example apps that emit several packets per timer expiry).
    for (int i = 0; i < profile_.pacing_burst_packets; ++i) {
      if (!connection_.has_data_to_send() ||
          connection_.congestion_blocked()) {
        break;
      }
      const sim::Time r = connection_.pacer_release_time(now);
      net::Packet pkt = connection_.build_packet(now, sim::max(now, r));
      stats_.cpu_time += os_.config().packet_build_cost;
      QUICSTEPS_TRACE_SPAN(trace_bus_, obs::TraceStage::kPacerRelease,
                           trace_component_, now, pkt);
      charge_syscall();
      socket_.sendmsg(std::move(pkt));
    }
  }
  if (!connection_.has_data_to_send()) connection_.set_app_limited();
  rearm_loss_timer();
}

void StackServer::rearm_loss_timer() {
  const sim::Time deadline = connection_.next_timer_deadline();
  if (loss_timer_.pending()) {
    // Lazy re-arm: every sent packet pushes the PTO deadline later, so the
    // common case is "deadline moved out" — leave the armed timer alone
    // and let the fire handler re-check. Only an earlier deadline forces a
    // reschedule. This turns the per-packet cancel + closure schedule into
    // a compare.
    if (deadline >= armed_loss_deadline_) return;
    loss_timer_.cancel();
  }
  if (deadline.is_infinite()) return;
  armed_loss_deadline_ = deadline;
  loss_timer_ = loop_.schedule_at(deadline, sim::EventClass::kTimer,
                                  [this] { on_loss_timer(); });
}

void StackServer::on_loss_timer() {
  const sim::Time deadline = connection_.next_timer_deadline();
  if (deadline.is_infinite()) return;  // everything was acked meanwhile
  if (loop_.now() < deadline) {
    // Spurious wake: the deadline moved later since arming. Re-arm
    // silently — no connection callback, so behavior (and the wire) is
    // exactly what an eagerly re-armed timer would have produced.
    armed_loss_deadline_ = deadline;
    loss_timer_ = loop_.schedule_at(deadline, sim::EventClass::kTimer,
                                    [this] { on_loss_timer(); });
    return;
  }
  connection_.on_timer(loop_.now());
  rearm_loss_timer();
  attempt_send();
}

}  // namespace quicsteps::stacks
