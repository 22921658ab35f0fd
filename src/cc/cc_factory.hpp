// Congestion-control settings and the factory assembling a controller from
// them. Each setting lives here once: Cubic reads its own from this struct,
// and BBR takes its flavor.
#pragma once

#include <memory>

#include "cc/bbr.hpp"
#include "cc/congestion_controller.hpp"
#include "cc/hystart_pp.hpp"

namespace quicsteps::cc {

struct CcConfig {
  CcAlgorithm algorithm = CcAlgorithm::kCubic;
  /// CUBIC: exit slow start with HyStart++ (RFC 9406).
  bool hystart = true;
  /// HyStart++ tuning; TCP uses css_rounds=0 for classic immediate exit.
  HystartPP::Config hystart_config = {};
  /// CUBIC slow-start growth divisor: cwnd += acked_bytes / divisor. 1 is
  /// RFC 9002 byte counting (2x per RTT); 2 models Linux TCP's
  /// packet-counting with delayed ACKs (1.5x per RTT), which is part of
  /// why kernel TCP's slow start barely overshoots.
  int slow_start_ack_divisor = 1;
  /// quiche's spurious-loss rollback (Section 4.2 / SF patch disables it):
  /// restore the pre-congestion state when a loss episode involves fewer
  /// packets than the threshold.
  bool spurious_loss_rollback = false;
  std::int64_t rollback_threshold_packets = 5;
  /// quiche scales the spurious-loss threshold with the window: rollback
  /// when lost < max(packets, fraction * cwnd/MSS). Zero disables scaling.
  double rollback_threshold_cwnd_fraction = 0.0;
  /// ngtcp2-style congestion-window validation: the window only grows
  /// when the sender is actually cwnd-limited. Combined with strict
  /// pacing this freezes the window (the mechanistic cause of ngtcp2's
  /// low baseline goodput in Table 1).
  bool require_cwnd_limited_growth = false;
  BbrFlavor bbr_flavor = BbrFlavor::kV1;
};

std::unique_ptr<CongestionController> make_controller(const CcConfig& config);

}  // namespace quicsteps::cc
