// CUBIC congestion controller (RFC 9438) with:
//   * HyStart++ slow-start exit (RFC 9406) — optional;
//   * fast convergence;
//   * the quiche spurious-loss checkpoint/rollback mechanism — optional.
//
// The rollback mechanism reproduces the behavior the paper's Section 4.2
// and Appendix A dissect (and cloudflare/quiche#1411 reports): quiche
// checkpoints the controller state before each congestion event and
// restores it when the loss episode turns out to involve fewer packets
// than a threshold. With a qdisc pacing the flow, each loss cycle drops
// only a handful of packets, the threshold is never reached, and the
// congestion window oscillates between two values for seconds ("perpetual
// rollbacks"). The paper's SF patch simply disables the mechanism — so do
// we, via `spurious_loss_rollback = false`.
#pragma once

#include <optional>

#include "cc/cc_factory.hpp"
#include "cc/congestion_controller.hpp"
#include "cc/hystart_pp.hpp"

namespace quicsteps::cc {

class Cubic final : public CongestionController {
 public:
  Cubic() : Cubic(CcConfig{}) {}
  /// Takes its settings (HyStart++, rollback, slow-start divisor, cwnd
  /// validation) from `config` and ignores `algorithm` and `bbr_flavor`.
  explicit Cubic(const CcConfig& config);

  void on_packet_sent(sim::Time now, std::uint64_t pn, std::int64_t bytes,
                      std::int64_t bytes_in_flight) override;
  void on_ack(const AckSample& ack) override;
  void on_loss(const LossSample& loss) override;

  std::int64_t cwnd_bytes() const override { return cwnd_; }
  bool in_slow_start() const override { return cwnd_ < ssthresh_; }
  const char* name() const override { return "cubic"; }
  std::string debug_state() const override;

  std::int64_t ssthresh_bytes() const { return ssthresh_; }
  bool in_recovery(sim::Time sent_time) const {
    return sent_time <= recovery_start_;
  }
  const HystartPP& hystart() const { return hystart_; }
  std::int64_t rollbacks_performed() const { return rollbacks_performed_; }
  std::int64_t congestion_events() const { return congestion_events_; }

 private:
  struct Checkpoint {
    std::int64_t cwnd;
    std::int64_t ssthresh;
    double w_max_mss;
    std::int64_t lost_packets_at_event;
  };

  void on_congestion_event(sim::Time now, sim::Time sent_time);
  void start_epoch(sim::Time now);
  double cubic_window_mss(sim::Duration t) const;
  /// Returns true when the checkpoint was restored (the caller then skips
  /// window growth for this ACK).
  bool maybe_rollback(const AckSample& ack);

  CcConfig config_;
  std::int64_t cwnd_;
  std::int64_t ssthresh_ = std::int64_t{1} << 60;
  sim::Time recovery_start_ = sim::Time::zero() - sim::Duration::nanos(1);

  // CUBIC epoch state (MSS units, per RFC 9438 notation).
  bool epoch_started_ = false;
  sim::Time epoch_start_;
  double w_max_mss_ = 0.0;
  double k_seconds_ = 0.0;
  double w_est_mss_ = 0.0;  // Reno-friendly estimate

  HystartPP hystart_;
  bool hystart_exited_ = false;

  // Rollback bookkeeping.
  std::int64_t total_lost_packets_ = 0;
  std::optional<Checkpoint> checkpoint_;
  std::int64_t rollbacks_performed_ = 0;
  std::int64_t congestion_events_ = 0;

  // Round tracking (HyStart++ rounds).
  std::uint64_t largest_sent_pn_ = 0;
  std::uint64_t round_end_pn_ = 0;
};

}  // namespace quicsteps::cc
