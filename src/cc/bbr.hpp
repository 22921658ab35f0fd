// BBR congestion controller (v1 state machine: STARTUP / DRAIN / PROBE_BW /
// PROBE_RTT) with a flavor knob, because the paper's stacks ship different
// BBRs with visibly different behavior:
//
//   kV1          — textbook BBRv1: ignores packet loss entirely. At a
//                  shallow (2 BDP) bottleneck this overshoots in startup
//                  and keeps poking the buffer in every probe cycle — the
//                  order-of-magnitude loss increase the paper reports for
//                  ngtcp2's BBR.
//   kLossCapped  — v1 plus a multiplicative cwnd cap on loss (quiche-like
//                  recovery handling).
//   kV2Lite      — loss-aware startup exit and probe backoff (the
//                  picoquic-style BBR whose pacing the paper praises).
//
// BBR is the one controller that owns its pacing rate (pacing_gain *
// bottleneck bandwidth); all stacks honor it through their pacers.
#pragma once

#include <cstdint>
#include <deque>

#include "cc/congestion_controller.hpp"

namespace quicsteps::cc {

enum class BbrFlavor : std::uint8_t { kV1, kLossCapped, kV2Lite };

const char* to_string(BbrFlavor flavor);

class Bbr final : public CongestionController {
 public:
  struct Config {
    BbrFlavor flavor = BbrFlavor::kV1;
    sim::Duration min_rtt_window = sim::Duration::seconds(10);
  };

  Bbr() : Bbr(Config{}) {}
  explicit Bbr(Config config);

  void on_packet_sent(sim::Time now, std::uint64_t pn, std::int64_t bytes,
                      std::int64_t bytes_in_flight) override;
  void on_ack(const AckSample& ack) override;
  void on_loss(const LossSample& loss) override;

  std::int64_t cwnd_bytes() const override;
  bool in_slow_start() const override { return state_ == State::kStartup; }
  net::DataRate pacing_rate() const override;
  bool has_own_pacing_rate() const override { return true; }
  const char* name() const override { return "bbr"; }
  std::string debug_state() const override;

  enum class State : std::uint8_t { kStartup, kDrain, kProbeBw, kProbeRtt };
  State state() const { return state_; }
  net::DataRate bottleneck_bandwidth() const;
  sim::Duration min_rtt() const { return min_rtt_; }

 private:
  void update_round(const AckSample& ack);
  void update_bandwidth_filter(const AckSample& ack);
  void update_min_rtt(const AckSample& ack);
  void check_full_bandwidth();
  void advance_state_machine(const AckSample& ack);
  std::int64_t bdp_bytes(double gain) const;

  Config config_;
  State state_ = State::kStartup;
  double pacing_gain_;
  double cwnd_gain_;

  // Windowed-max bandwidth filter: (round, sample) pairs, deque kept
  // monotonically decreasing in sample.
  std::deque<std::pair<std::int64_t, net::DataRate>> bw_samples_;

  sim::Duration min_rtt_ = sim::Duration::infinite();
  sim::Time min_rtt_stamp_;

  // Round tracking via packet numbers.
  std::uint64_t largest_sent_pn_ = 0;
  std::uint64_t round_end_pn_ = 0;
  std::int64_t round_count_ = 0;
  bool round_started_ = false;

  // Startup full-bandwidth detection.
  net::DataRate full_bw_;
  int full_bw_count_ = 0;
  bool full_bw_reached_ = false;

  // PROBE_BW gain cycling.
  int cycle_index_ = 0;
  sim::Time cycle_stamp_;

  // PROBE_RTT.
  sim::Time probe_rtt_done_stamp_;
  bool probe_rtt_round_done_ = false;

  std::int64_t bytes_in_flight_ = 0;
  std::int64_t cwnd_;
  std::int64_t prior_cwnd_ = 0;

  // Loss response bookkeeping (kLossCapped / kV2Lite).
  sim::Time recovery_start_ = sim::Time::zero() - sim::Duration::nanos(1);
};

}  // namespace quicsteps::cc
