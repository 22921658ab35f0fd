#include "quic/loss_detection.hpp"

#include <algorithm>

namespace quicsteps::quic {

namespace {
// RFC 9002 §6.1.1, §6.1.2 and §7.6.1.
constexpr int kPacketThreshold = 3;
constexpr double kTimeThreshold = 9.0 / 8.0;
constexpr int kPersistentCongestionThreshold = 3;
}  // namespace

sim::Duration LossDetection::loss_delay(const RttEstimator& rtt) const {
  const sim::Duration base = sim::max(rtt.smoothed(), rtt.latest());
  const auto delay = base * kTimeThreshold;
  return sim::max(delay, kGranularity);
}

LossDetection::Result LossDetection::detect(SentPacketMap& map,
                                            std::uint64_t largest_acked,
                                            const RttEstimator& rtt,
                                            sim::Time now) const {
  Result result;
  const sim::Duration delay = loss_delay(rtt);
  const sim::Time lost_send_time = now - delay;

  std::vector<std::uint64_t> to_remove;
  map.for_each_below(largest_acked, [&](const SentPacket& pkt) {
    if (largest_acked >= pkt.pn + kPacketThreshold ||
        pkt.time_sent <= lost_send_time) {
      to_remove.push_back(pkt.pn);
    } else {
      result.next_loss_time =
          sim::min(result.next_loss_time, pkt.time_sent + delay);
    }
  });
  for (std::uint64_t pn : to_remove) {
    SentPacket pkt;
    if (map.take(pn, &pkt)) result.lost.push_back(std::move(pkt));
  }

  // Persistent congestion: the span of consecutive losses exceeds
  // kPersistentCongestionThreshold * PTO (RFC 9002 §7.6), only meaningful
  // with RTT samples.
  if (result.lost.size() >= 2 && rtt.has_samples()) {
    const sim::Duration pto = rtt.pto_interval();
    const sim::Duration span =
        result.lost.back().time_sent - result.lost.front().time_sent;
    if (span > pto * kPersistentCongestionThreshold) {
      result.persistent_congestion = true;
    }
  }
  return result;
}

sim::Time LossDetection::pto_deadline(const SentPacketMap& map,
                                      const RttEstimator& rtt,
                                      int pto_count) const {
  const SentPacket* oldest = map.oldest();
  if (oldest == nullptr) return sim::Time::infinite();
  sim::Duration interval = rtt.pto_interval();
  for (int i = 0; i < pto_count; ++i) interval = interval * 2;  // backoff
  return oldest->time_sent + interval;
}

}  // namespace quicsteps::quic
