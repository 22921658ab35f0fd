#include "cc/hystart_pp.hpp"

#include <algorithm>
#include <cstdio>

namespace quicsteps::cc {

void HystartPP::on_round_start() {
  if (phase_ == Phase::kDone) return;
  if (phase_ == Phase::kCss) {
    ++css_round_count_;
    if (css_round_count_ >= config_.css_rounds) {
      // RTT stayed inflated for the full CSS window: the exit was genuine.
      phase_ = Phase::kDone;
      return;
    }
  }
  last_round_min_rtt_ = round_metric();
  current_round_min_rtt_ = sim::Duration::infinite();
  current_round_sum_ = sim::Duration::zero();
  rtt_sample_count_ = 0;
}

sim::Duration HystartPP::eta() const {
  // RTT_THRESH = clamp(MIN_RTT_THRESH, lastRoundMinRTT / 8, MAX_RTT_THRESH)
  return std::clamp(last_round_min_rtt_ / 8, config_.min_rtt_thresh,
                    config_.max_rtt_thresh);
}

sim::Duration HystartPP::round_metric() const {
  if (rtt_sample_count_ == 0) return sim::Duration::infinite();
  if (!config_.use_round_mean) return current_round_min_rtt_;
  // Running mean over the whole round: burst TAILS contribute, so bursty
  // traffic inflates the metric long before a standing queue exists.
  return current_round_sum_ / rtt_sample_count_;
}

void HystartPP::on_rtt_sample(sim::Duration rtt) {
  if (phase_ == Phase::kDone) return;
  current_round_min_rtt_ = sim::min(current_round_min_rtt_, rtt);
  current_round_sum_ += rtt;
  ++rtt_sample_count_;
  if (rtt_sample_count_ < config_.n_rtt_sample) return;
  if (last_round_min_rtt_.is_infinite()) return;

  if (phase_ == Phase::kSlowStart) {
    if (!round_metric().is_infinite() &&
        round_metric() >= last_round_min_rtt_ + eta()) {
      // Delay increase spotted: drop into conservative slow start. The
      // baseline is the INFLATED round-min at entry (RFC 9406): CSS is
      // abandoned only if the RTT later deflates below it.
      css_baseline_min_rtt_ = round_metric();
      phase_ = Phase::kCss;
      css_round_count_ = 0;
    }
    return;
  }

  // In CSS: if the RTT deflates back below the entry baseline, the exit
  // was spurious — return to standard slow start (RFC 9406 §4.2).
  if (round_metric() < css_baseline_min_rtt_) {
    phase_ = Phase::kSlowStart;
    css_round_count_ = 0;
  }
}

std::string HystartPP::debug_state() const {
  char buf[128];
  const char* phase = phase_ == Phase::kSlowStart ? "ss"
                      : phase_ == Phase::kCss     ? "css"
                                                  : "done";
  std::snprintf(buf, sizeof(buf), "hystart{%s round_min=%s last=%s}", phase,
                current_round_min_rtt_.to_string().c_str(),
                last_round_min_rtt_.to_string().c_str());
  return buf;
}

}  // namespace quicsteps::cc
