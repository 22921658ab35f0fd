#include "cc/cubic.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace quicsteps::cc {

namespace {
constexpr double kMss = static_cast<double>(kMaxDatagramSize);
constexpr double kBeta = 0.7;  // RFC 9438 beta_cubic
constexpr double kC = 0.4;     // RFC 9438 C
}  // namespace

Cubic::Cubic(const CcConfig& config)
    : config_(config), cwnd_(kInitialWindow), hystart_(config.hystart_config) {}

void Cubic::on_packet_sent(sim::Time, std::uint64_t pn, std::int64_t,
                           std::int64_t) {
  largest_sent_pn_ = std::max(largest_sent_pn_, pn);
}

double Cubic::cubic_window_mss(sim::Duration t) const {
  const double dt = t.to_seconds() - k_seconds_;
  return kC * dt * dt * dt + w_max_mss_;
}

void Cubic::start_epoch(sim::Time now) {
  epoch_started_ = true;
  epoch_start_ = now;
  const double cwnd_mss = static_cast<double>(cwnd_) / kMss;
  if (cwnd_mss < w_max_mss_) {
    // K = cbrt((W_max - cwnd) / C)
    k_seconds_ = std::cbrt((w_max_mss_ - cwnd_mss) / kC);
  } else {
    k_seconds_ = 0.0;
    w_max_mss_ = cwnd_mss;
  }
  w_est_mss_ = cwnd_mss;
}

void Cubic::on_ack(const AckSample& ack) {
  // --- HyStart++ round & sample bookkeeping -------------------------------
  if (config_.hystart && !hystart_exited_ && in_slow_start()) {
    if (ack.largest_acked_pn >= round_end_pn_) {
      hystart_.on_round_start();
      round_end_pn_ = largest_sent_pn_ + 1;
    }
    if (ack.latest_rtt > sim::Duration::zero()) {
      hystart_.on_rtt_sample(ack.latest_rtt);
    }
    if (hystart_.done()) {
      // HyStart++ confirmed the delay increase: leave slow start here.
      hystart_exited_ = true;
      ssthresh_ = cwnd_;
    }
  }

  if (maybe_rollback(ack)) return;  // restored state verbatim, no growth

  if (in_recovery(ack.largest_acked_sent_time)) return;

  if (config_.require_cwnd_limited_growth && !in_slow_start() &&
      ack.bytes_in_flight + ack.acked_bytes < cwnd_) {
    // Congestion avoidance without being cwnd-limited: the window is not
    // validated and must not grow (slow start is exempt — the sender is
    // effectively cwnd-limited while ramping).
    return;
  }

  if (in_slow_start()) {
    cwnd_ += ack.acked_bytes /
             (hystart_.growth_divisor() * config_.slow_start_ack_divisor);
    if (!in_slow_start()) epoch_started_ = false;  // fell through to CA
    return;
  }

  // --- congestion avoidance (RFC 9438) ------------------------------------
  if (!epoch_started_) start_epoch(ack.now);
  const double cwnd_mss = static_cast<double>(cwnd_) / kMss;
  const sim::Duration t = ack.now - epoch_start_;
  const sim::Duration rtt =
      ack.smoothed_rtt > sim::Duration::zero() ? ack.smoothed_rtt
                                               : sim::Duration::millis(100);

  // Reno-friendly estimate: alpha = 3 * (1 - beta) / (1 + beta).
  const double alpha = 3.0 * (1.0 - kBeta) / (1.0 + kBeta);
  w_est_mss_ +=
      alpha * static_cast<double>(ack.acked_bytes) / kMss / cwnd_mss;

  double target = cubic_window_mss(t + rtt);
  // RFC 9438: clamp the target into [cwnd, 1.5 * cwnd].
  target = std::clamp(target, cwnd_mss, 1.5 * cwnd_mss);

  double increase_mss;
  if (w_est_mss_ > target) {
    // Reno-friendly region.
    increase_mss =
        alpha * static_cast<double>(ack.acked_bytes) / kMss / cwnd_mss;
  } else if (target > cwnd_mss) {
    // Concave/convex region: approach the target within one RTT.
    increase_mss = (target - cwnd_mss) / cwnd_mss *
                   (static_cast<double>(ack.acked_bytes) / kMss);
  } else {
    // At or above the target: minimal growth (1/100 MSS per acked MSS).
    increase_mss =
        0.01 * static_cast<double>(ack.acked_bytes) / kMss / cwnd_mss;
  }
  cwnd_ += static_cast<std::int64_t>(increase_mss * kMss);
}

void Cubic::on_congestion_event(sim::Time now, sim::Time sent_time) {
  if (in_recovery(sent_time)) return;
  ++congestion_events_;
  recovery_start_ = now;

  if (config_.spurious_loss_rollback) {
    // quiche checkpoints the state *before* reducing, so a later
    // "spurious" verdict can undo the reduction wholesale.
    checkpoint_ = Checkpoint{cwnd_, ssthresh_, w_max_mss_,
                             total_lost_packets_};
  }

  hystart_.on_congestion_event();
  hystart_exited_ = true;

  // Fast convergence (RFC 9438 §4.7): a window that peaked below the last
  // W_max releases bandwidth to newer flows.
  double cwnd_mss = static_cast<double>(cwnd_) / kMss;
  if (cwnd_mss < w_max_mss_) {
    w_max_mss_ = cwnd_mss * (1.0 + kBeta) / 2.0;
  } else {
    w_max_mss_ = cwnd_mss;
  }
  cwnd_ = static_cast<std::int64_t>(static_cast<double>(cwnd_) * kBeta);
  cwnd_ = std::max(cwnd_, kMinimumWindow);
  ssthresh_ = cwnd_;
  epoch_started_ = false;
}

bool Cubic::maybe_rollback(const AckSample& ack) {
  if (!config_.spurious_loss_rollback || !checkpoint_) return false;
  // quiche: when an ACK arrives for a packet sent *after* the current
  // recovery period began, and the packets lost since the checkpoint stay
  // below the threshold, the loss episode is declared spurious and the
  // checkpointed state is restored.
  if (ack.largest_acked_sent_time <= recovery_start_) return false;
  const std::int64_t lost_since =
      total_lost_packets_ - checkpoint_->lost_packets_at_event;
  std::int64_t threshold = config_.rollback_threshold_packets;
  if (config_.rollback_threshold_cwnd_fraction > 0.0) {
    // Scaled against the checkpointed (pre-reduction) window.
    threshold = std::max(
        threshold,
        static_cast<std::int64_t>(config_.rollback_threshold_cwnd_fraction *
                                  static_cast<double>(checkpoint_->cwnd) /
                                  kMss));
  }
  bool rolled_back = false;
  if (lost_since < threshold) {
    cwnd_ = checkpoint_->cwnd;
    ssthresh_ = checkpoint_->ssthresh;
    w_max_mss_ = checkpoint_->w_max_mss;
    epoch_started_ = false;
    ++rollbacks_performed_;
    rolled_back = true;
  }
  checkpoint_.reset();
  return rolled_back;
}

void Cubic::on_loss(const LossSample& loss) {
  // Checkpoint first so the burst that *triggers* the congestion event
  // counts toward the spurious-loss threshold: baseline quiche recovers
  // because its losses arrive in large bursts, while FQ-paced losses stay
  // below the threshold and roll back (paper Section 4.2).
  on_congestion_event(loss.now, loss.largest_lost_sent_time);
  total_lost_packets_ += loss.lost_packets;
  if (loss.persistent_congestion) {
    cwnd_ = kMinimumWindow;
    epoch_started_ = false;
  }
}

std::string Cubic::debug_state() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "cubic{cwnd=%lld ssthresh=%lld wmax=%.1f k=%.3f %s rb=%lld}",
                static_cast<long long>(cwnd_),
                static_cast<long long>(ssthresh_), w_max_mss_, k_seconds_,
                in_slow_start() ? "ss" : "ca",
                static_cast<long long>(rollbacks_performed_));
  return buf;
}

}  // namespace quicsteps::cc
