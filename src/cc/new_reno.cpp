#include "cc/new_reno.hpp"

#include <algorithm>
#include <cstdio>

namespace quicsteps::cc {

namespace {
constexpr double kLossReductionFactor = 0.5;  // RFC 9002 kLossReductionFactor
}  // namespace

void NewReno::on_packet_sent(sim::Time, std::uint64_t, std::int64_t,
                             std::int64_t) {}

void NewReno::on_ack(const AckSample& ack) {
  // No growth for packets sent before (or during) the current recovery.
  if (in_recovery(ack.largest_acked_sent_time)) return;
  if (in_slow_start()) {
    cwnd_ += ack.acked_bytes;
    return;
  }
  // Congestion avoidance: one MSS per cwnd of acked bytes.
  cwnd_ += kMaxDatagramSize * ack.acked_bytes / cwnd_;
}

void NewReno::on_congestion_event(sim::Time now, sim::Time sent_time) {
  if (in_recovery(sent_time)) return;  // once per recovery period
  recovery_start_ = now;
  cwnd_ = static_cast<std::int64_t>(static_cast<double>(cwnd_) *
                                    kLossReductionFactor);
  cwnd_ = std::max(cwnd_, kMinimumWindow);
  ssthresh_ = cwnd_;
}

void NewReno::on_loss(const LossSample& loss) {
  on_congestion_event(loss.now, loss.largest_lost_sent_time);
  if (loss.persistent_congestion) {
    cwnd_ = kMinimumWindow;
  }
}

std::string NewReno::debug_state() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "newreno{cwnd=%lld ssthresh=%lld %s}",
                static_cast<long long>(cwnd_),
                static_cast<long long>(ssthresh_),
                in_slow_start() ? "ss" : "ca");
  return buf;
}

}  // namespace quicsteps::cc
