#include "cc/bbr.hpp"

#include <algorithm>
#include <cstdio>

namespace quicsteps::cc {

namespace {
// BBRv1 PROBE_BW gain cycle.
constexpr double kProbeBwGains[] = {1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0};
constexpr int kGainCycleLength = 8;
constexpr double kStartupGain = 2.885;  // 2/ln(2)
constexpr double kDrainGain = 1.0 / kStartupGain;
constexpr double kCwndGain = 2.0;
/// Rounds the windowed-max bandwidth filter remembers.
constexpr int kBwWindowRounds = 10;
constexpr sim::Duration kProbeRttDuration = sim::Duration::millis(200);
/// BBR's cwnd floor (and its PROBE_RTT window): 4 packets.
constexpr std::int64_t kBbrMinimumWindow = 4 * kMaxDatagramSize;
/// Loss response strength for kLossCapped / kV2Lite.
constexpr double kLossCwndFactor = 0.85;
}  // namespace

const char* to_string(BbrFlavor flavor) {
  switch (flavor) {
    case BbrFlavor::kV1:
      return "bbr-v1";
    case BbrFlavor::kLossCapped:
      return "bbr-loss-capped";
    case BbrFlavor::kV2Lite:
      return "bbr-v2lite";
  }
  return "?";
}

Bbr::Bbr(Config config)
    : config_(config),
      pacing_gain_(kStartupGain),
      cwnd_gain_(kStartupGain),
      cwnd_(kInitialWindow) {}

net::DataRate Bbr::bottleneck_bandwidth() const {
  if (bw_samples_.empty()) {
    // Before the first sample, assume the initial window crosses a nominal
    // RTT (RFC 9002's suggestion for an initial pacing rate).
    return net::DataRate::bytes_per(kInitialWindow, sim::Duration::millis(100));
  }
  return bw_samples_.front().second;
}

net::DataRate Bbr::pacing_rate() const {
  return bottleneck_bandwidth() * pacing_gain_;
}

std::int64_t Bbr::bdp_bytes(double gain) const {
  if (min_rtt_.is_infinite()) return kInitialWindow;
  const double bdp = bottleneck_bandwidth().bytes_per_second_f() *
                     min_rtt_.to_seconds() * gain;
  return static_cast<std::int64_t>(bdp);
}

std::int64_t Bbr::cwnd_bytes() const {
  if (state_ == State::kProbeRtt) {
    return kBbrMinimumWindow;
  }
  return std::max(cwnd_, kBbrMinimumWindow);
}

void Bbr::on_packet_sent(sim::Time, std::uint64_t pn, std::int64_t bytes,
                         std::int64_t bytes_in_flight) {
  largest_sent_pn_ = std::max(largest_sent_pn_, pn);
  bytes_in_flight_ = bytes_in_flight + bytes;
}

void Bbr::update_round(const AckSample& ack) {
  round_started_ = false;
  if (ack.largest_acked_pn >= round_end_pn_) {
    round_end_pn_ = largest_sent_pn_ + 1;
    ++round_count_;
    round_started_ = true;
  }
}

void Bbr::update_bandwidth_filter(const AckSample& ack) {
  if (ack.bandwidth_sample.is_zero()) return;
  // App-limited samples only count when they raise the estimate.
  if (ack.app_limited && ack.bandwidth_sample <= bottleneck_bandwidth()) {
    return;
  }
  // Evict samples older than the window.
  while (!bw_samples_.empty() &&
         bw_samples_.front().first <= round_count_ - kBwWindowRounds) {
    bw_samples_.pop_front();
  }
  // Monotonic deque insert.
  while (!bw_samples_.empty() &&
         bw_samples_.back().second <= ack.bandwidth_sample) {
    bw_samples_.pop_back();
  }
  bw_samples_.emplace_back(round_count_, ack.bandwidth_sample);
}

void Bbr::update_min_rtt(const AckSample& ack) {
  if (ack.latest_rtt <= sim::Duration::zero()) return;
  // Expiry does NOT refresh the stamp here — it triggers PROBE_RTT in the
  // state machine, which resets the window on exit. (Refreshing here would
  // mean a constant-RTT path never probes.)
  if (ack.latest_rtt < min_rtt_) {
    min_rtt_ = ack.latest_rtt;
    min_rtt_stamp_ = ack.now;
  } else if (state_ == State::kProbeRtt) {
    min_rtt_ = ack.latest_rtt;
    min_rtt_stamp_ = ack.now;
  }
}

void Bbr::check_full_bandwidth() {
  if (full_bw_reached_ || !round_started_) return;
  const net::DataRate bw = bottleneck_bandwidth();
  // 25% growth test in __int128: full_bw_ can hold the infinite sentinel
  // (1 << 62), so `bps * 5` would overflow int64.
  if (static_cast<__int128>(bw.bps()) * 4 >=
      static_cast<__int128>(full_bw_.bps()) * 5) {
    full_bw_ = bw;
    full_bw_count_ = 0;
    return;
  }
  if (++full_bw_count_ >= 3) full_bw_reached_ = true;
}

void Bbr::advance_state_machine(const AckSample& ack) {
  switch (state_) {
    case State::kStartup:
      check_full_bandwidth();
      if (full_bw_reached_) {
        state_ = State::kDrain;
        pacing_gain_ = kDrainGain;
        cwnd_gain_ = kStartupGain;
      }
      break;
    case State::kDrain:
      if (ack.bytes_in_flight <= bdp_bytes(1.0)) {
        state_ = State::kProbeBw;
        pacing_gain_ = kProbeBwGains[cycle_index_ = 0];
        cwnd_gain_ = kCwndGain;
        cycle_stamp_ = ack.now;
      }
      break;
    case State::kProbeBw: {
      // Advance the gain cycle once per min_rtt.
      const sim::Duration phase =
          min_rtt_.is_infinite() ? sim::Duration::millis(100) : min_rtt_;
      if (ack.now - cycle_stamp_ > phase) {
        cycle_index_ = (cycle_index_ + 1) % kGainCycleLength;
        pacing_gain_ = kProbeBwGains[cycle_index_];
        cycle_stamp_ = ack.now;
      }
      break;
    }
    case State::kProbeRtt:
      if (probe_rtt_round_done_ && ack.now >= probe_rtt_done_stamp_) {
        min_rtt_stamp_ = ack.now;
        state_ = full_bw_reached_ ? State::kProbeBw : State::kStartup;
        pacing_gain_ = full_bw_reached_ ? kProbeBwGains[cycle_index_ = 0]
                                        : kStartupGain;
        cwnd_gain_ = full_bw_reached_ ? kCwndGain : kStartupGain;
        cycle_stamp_ = ack.now;
        cwnd_ = std::max(cwnd_, prior_cwnd_);
      }
      break;
  }

  // Enter PROBE_RTT when the min_rtt estimate has gone stale.
  if (state_ != State::kProbeRtt && !min_rtt_.is_infinite() &&
      ack.now > min_rtt_stamp_ + config_.min_rtt_window) {
    state_ = State::kProbeRtt;
    prior_cwnd_ = cwnd_;
    pacing_gain_ = 1.0;
    probe_rtt_done_stamp_ = ack.now + kProbeRttDuration;
    probe_rtt_round_done_ = false;
    round_end_pn_ = largest_sent_pn_ + 1;
  }
  if (state_ == State::kProbeRtt && round_started_) {
    probe_rtt_round_done_ = true;
  }
}

void Bbr::on_ack(const AckSample& ack) {
  bytes_in_flight_ = ack.bytes_in_flight;
  update_round(ack);
  update_bandwidth_filter(ack);
  update_min_rtt(ack);
  advance_state_machine(ack);

  // Target window: cwnd_gain * BDP (plus a 3-packet quantum for ACK
  // aggregation), approached additively outside PROBE_RTT.
  const std::int64_t target =
      bdp_bytes(cwnd_gain_) + 3 * kMaxDatagramSize;
  if (full_bw_reached_) {
    cwnd_ = std::min(cwnd_ + ack.acked_bytes, target);
  } else {
    cwnd_ += ack.acked_bytes;  // startup: grow as fast as delivery confirms
  }
  cwnd_ = std::max(cwnd_, kBbrMinimumWindow);
}

void Bbr::on_loss(const LossSample& loss) {
  switch (config_.flavor) {
    case BbrFlavor::kV1:
      // v1 famously ignores loss — the source of its buffer-punishing
      // behavior at shallow bottlenecks.
      return;
    case BbrFlavor::kLossCapped: {
      if (loss.largest_lost_sent_time <= recovery_start_) return;
      recovery_start_ = loss.now;
      cwnd_ = std::max(static_cast<std::int64_t>(static_cast<double>(cwnd_) *
                                                 kLossCwndFactor),
                       kBbrMinimumWindow);
      return;
    }
    case BbrFlavor::kV2Lite: {
      if (loss.largest_lost_sent_time <= recovery_start_) return;
      recovery_start_ = loss.now;
      // Loss in startup is treated as "pipe full" (v2-style).
      if (!full_bw_reached_) full_bw_reached_ = true;
      // During an up-probe, loss means the probe overran the pipe: fall
      // straight into the drain phase of the cycle.
      if (state_ == State::kProbeBw && pacing_gain_ > 1.0) {
        cycle_index_ = 1;  // the 0.75 drain phase
        pacing_gain_ = kProbeBwGains[cycle_index_];
        cycle_stamp_ = loss.now;
      }
      cwnd_ = std::max(static_cast<std::int64_t>(static_cast<double>(cwnd_) *
                                                 kLossCwndFactor),
                       kBbrMinimumWindow);
      return;
    }
  }
}

std::string Bbr::debug_state() const {
  char buf[192];
  const char* state = state_ == State::kStartup   ? "startup"
                      : state_ == State::kDrain   ? "drain"
                      : state_ == State::kProbeBw ? "probe_bw"
                                                  : "probe_rtt";
  std::snprintf(buf, sizeof(buf),
                "bbr{%s %s bw=%s min_rtt=%s cwnd=%lld gain=%.2f}", state,
                to_string(config_.flavor),
                bottleneck_bandwidth().to_string().c_str(),
                min_rtt_.to_string().c_str(), static_cast<long long>(cwnd_),
                pacing_gain_);
  return buf;
}

}  // namespace quicsteps::cc
