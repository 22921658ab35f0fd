// Loss detection per RFC 9002 Section 6: packet-number threshold, time
// threshold, and the probe timeout (PTO). Persistent congestion (§7.6) is
// detected across consecutive lost packets.
#pragma once

#include <cstdint>
#include <vector>

#include "quic/rtt_estimator.hpp"
#include "quic/sent_packet_map.hpp"
#include "sim/time.hpp"

namespace quicsteps::quic {

class LossDetection {
 public:
  struct Result {
    std::vector<SentPacket> lost;
    bool persistent_congestion = false;
    /// Earliest instant a still-tracked packet could be declared lost by
    /// the time threshold; infinite if none.
    sim::Time next_loss_time = sim::Time::infinite();
  };

  /// Scans `map` for packets now considered lost given `largest_acked`.
  /// Lost packets are REMOVED from the map.
  Result detect(SentPacketMap& map, std::uint64_t largest_acked,
                const RttEstimator& rtt, sim::Time now) const;

  /// PTO deadline given the oldest outstanding ack-eliciting packet.
  sim::Time pto_deadline(const SentPacketMap& map, const RttEstimator& rtt,
                         int pto_count) const;

 private:
  sim::Duration loss_delay(const RttEstimator& rtt) const;
};

}  // namespace quicsteps::quic
