#include "stacks/event_loop_model.hpp"

#include <utility>

namespace quicsteps::stacks {

namespace {

// Per-packet CPU cost of building and encrypting a QUIC packet in user
// space.
constexpr sim::Duration kPacketBuildCost = sim::Duration::micros(2);

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
      slab_(slab),
      os_(os),
      profile_(std::move(profile)),
      connection_(merge_config(conn_config, profile_)),
      socket_(loop, slab, os, kernel_egress),
      pacer_timers_(loop, os, profile_.pacer_timer) {}

void StackServer::charge_syscall() {
  stats_.cpu_time += os_.draw_syscall_cost();
  ++stats_.send_syscalls;
}

void StackServer::deliver_ref([[maybe_unused]] net::PacketSlab& slab,
                              net::PacketSlab::Ref ref) {
  QUICSTEPS_AUDIT(&slab == &slab_, "ACK from another slab");
  if (slab_.at(ref).kind != net::PacketKind::kQuicAck) {
    slab_.retire(ref);
    return;
  }

  // Duty-cycle loop stall: during the busy part of the cycle the loop is
  // off doing other work; everything that arrives queues until it ends.
  const sim::Duration cycle = profile_.loop_busy_cycle;
  if (cycle > sim::Duration::zero()) {
    const std::int64_t phase = loop_.now().ns() % cycle.ns();
    if (phase < profile_.loop_busy_duration.ns()) {
      pending_acks_.push_back(ref);
      if (!batch_timer_.pending()) {
        batch_timer_ = loop_.schedule_at<&StackServer::process_ack_batch>(
            loop_.now() +
                (profile_.loop_busy_duration - sim::Duration::nanos(phase)),
            sim::EventClass::kTransport, this);
      }
      return;
    }
  }

  // Stochastic iteration latency: coalesce ACKs for an exponentially drawn
  // window (short typical iterations, heavy-ish tail).
  if (!profile_.recv_batch_window.is_zero()) {
    pending_acks_.push_back(ref);
    if (!batch_timer_.pending()) {
      const sim::Duration window = os_.rng().exponential_duration(
          profile_.recv_batch_window, profile_.recv_batch_window * 8.0);
      batch_timer_ = loop_.schedule_at<&StackServer::process_ack_batch>(
          loop_.now() + window, sim::EventClass::kTransport, this);
    }
    return;
  }

  ++stats_.wakeups;
  connection_.on_ack(slab_.ack(ref), loop_.now());
  slab_.retire(ref);
  rearm_loss_timer();
  attempt_send();
}

void StackServer::process_ack_batch() {
  ++stats_.wakeups;
  const sim::Time now = loop_.now();
  for (const net::PacketSlab::Ref ref : pending_acks_) {
    connection_.on_ack(slab_.ack(ref), now);
    slab_.retire(ref);
  }
  pending_acks_.clear();
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
      yield_timer_ = loop_.schedule_at<&StackServer::attempt_send>(
          now + pause, sim::EventClass::kTransport, this);
      break;
    }
    ++written;
    const sim::Time release = connection_.pacer_release_time(now);
    net::Packet pkt = connection_.build_packet(now, release);
    pkt.has_txtime = true;
    pkt.txtime = release + profile_.txtime_headroom;
    pkt.expected_send_time = pkt.txtime;
    stats_.cpu_time += kPacketBuildCost;
    QUICSTEPS_TRACE_SPAN(trace_bus_, obs::TraceStage::kPacerRelease,
                         trace_component_, now, pkt);

    if (profile_.gso == kernel::GsoMode::kOff && !profile_.use_sendmmsg) {
      charge_syscall();
      socket_.sendmsg(pkt);
    } else {
      send_batch_.push_back(pkt);
      if (static_cast<int>(send_batch_.size()) >= profile_.gso_segments) {
        flush_send_batch();
      }
    }
  }
  if (!send_batch_.empty()) flush_send_batch();
  if (!connection_.has_data_to_send()) connection_.set_app_limited();
  rearm_loss_timer();
}

void StackServer::flush_send_batch() {
  charge_syscall();
  if (profile_.gso == kernel::GsoMode::kOff) {
    socket_.sendmmsg(send_batch_);
    return;
  }
  net::DataRate gso_rate;  // zero = stock (unpaced) GSO
  if (profile_.gso == kernel::GsoMode::kPaced) {
    const net::DataRate pacing = connection_.pacing_rate();
    if (!pacing.is_infinite() && !pacing.is_zero()) gso_rate = pacing;
  }
  socket_.sendmsg_gso(send_batch_, gso_rate);
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
        send_timer_ =
            pacer_timers_.arm(release, &StackServer::on_pacer_timer, this);
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
      stats_.cpu_time += kPacketBuildCost;
      QUICSTEPS_TRACE_SPAN(trace_bus_, obs::TraceStage::kPacerRelease,
                           trace_component_, now, pkt);
      charge_syscall();
      socket_.sendmsg(pkt);
    }
  }
  if (!connection_.has_data_to_send()) connection_.set_app_limited();
  rearm_loss_timer();
}

void StackServer::rearm_loss_timer() {
  loss_timer_.arm<&StackServer::on_loss_timer>(
      loop_, connection_.next_timer_deadline(), this);
}

void StackServer::on_loss_timer() {
  if (loop_.now() < connection_.next_timer_deadline()) {
    rearm_loss_timer();  // woken early: the deadline moved later
    return;
  }
  connection_.on_timer(loop_.now());
  rearm_loss_timer();
  attempt_send();
}

}  // namespace quicsteps::stacks
