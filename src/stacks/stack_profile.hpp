// Behavioral profiles of the measured QUIC stacks.
//
// The shared transport (src/quic) is identical across stacks — as the paper
// notes, even the pacing-rate calculation is the same. What differs, and
// what these profiles encode, is the enforcement architecture:
//
//            pacing enforcement      credit     timers            kernel use
//  quiche    kernel (SO_TXTIME)      none       coarse loop       txtime+GSO
//  ngtcp2    application waits       none       fine (timerfd)    none
//  picoquic  application waits       bucket     coarse when idle  none
//
// plus the congestion-control quirks Section 4 dissects (quiche's spurious
// -loss rollback, ngtcp2's cwnd validation + strict rate, the different
// BBR generations).
#pragma once

#include <string>

#include "cc/cc_factory.hpp"
#include "kernel/gso.hpp"
#include "kernel/timer_service.hpp"
#include "pacing/pacer.hpp"

namespace quicsteps::stacks {

struct StackProfile {
  std::string name;

  // --- congestion control ---------------------------------------------------
  cc::CcConfig cc;

  // --- pacing architecture ---------------------------------------------------
  pacing::PacerConfig pacer;
  /// Headroom factor on cwnd/srtt (all stacks compute the rate this way).
  double pacing_rate_factor = 1.25;
  /// quiche: compute per-packet txtimes and hand them to the kernel via
  /// SO_TXTIME instead of waiting in user space. false (ngtcp2/picoquic):
  /// the application sleeps until the pacer's release time.
  bool pass_txtime = false;
  /// Packets released per pacer expiry when waiting (ngtcp2's example
  /// writes small batches per timer fire).
  int pacing_burst_packets = 1;
  /// Cap on packets written per loop iteration in txtime mode (socket
  /// buffer / iteration budget of the quiche example); 0 = unlimited.
  int max_packets_per_iteration = 0;
  /// Offset added to every SO_TXTIME stamp (ETF users schedule ahead so
  /// the qdisc+driver path completes before the launch time). Zero for
  /// FQ-style deployments.
  sim::Duration txtime_headroom = sim::Duration::zero();

  // --- application event-loop timing ------------------------------------------
  /// Timer discipline for pacer waits (granularity quantizes the sleep).
  kernel::TimerService::Config pacer_timer;
  /// Mean event-loop iteration latency: arriving ACKs coalesce for an
  /// exponentially drawn window with this mean (capped at 8x). Zero =
  /// immediate processing. Models the example server's loop, whose tail
  /// iterations produce the longer packet trains of Figures 2/3.
  sim::Duration recv_batch_window = sim::Duration::zero();
  /// Duty-cycle loop stall (picoquic, loss-based CCAs): every `cycle`, the
  /// loop is busy for `duration`; ACKs arriving then are digested in one
  /// batch at the end — with the leaky bucket refilled, a bucket-capped
  /// burst drains ("bursts after a 5 ms idle period almost every 10 ms").
  sim::Duration loop_busy_cycle = sim::Duration::zero();
  sim::Duration loop_busy_duration = sim::Duration::zero();

  // --- peer (example client) traits --------------------------------------------
  /// Connection flow-control credit the stack's example client grants.
  /// <=0 = effectively unlimited. The ngtcp2 example pair runs with a
  /// static, conservative credit, capping throughput at credit/RTT.
  std::int64_t flow_control_credit = 0;

  // --- kernel offload ---------------------------------------------------------
  kernel::GsoMode gso = kernel::GsoMode::kOff;
  /// Max segments per GSO buffer (also the sendmmsg batch size).
  int gso_segments = 16;
  /// Batch packets into sendmmsg() calls when GSO is off: one syscall for
  /// many skbs — the kernel can still pace each packet individually
  /// (Section 4.3 contrasts this with GSO, which cannot be paced within a
  /// buffer).
  bool use_sendmmsg = false;
};

/// Options shared by the per-stack profile factories.
struct ProfileOptions {
  cc::CcAlgorithm cca = cc::CcAlgorithm::kCubic;
  kernel::GsoMode gso = kernel::GsoMode::kOff;
  int gso_segments = 16;
  /// quiche only: apply the paper's SF patch (disable spurious-loss
  /// rollback).
  bool sf_patch = false;
  /// quiche only: SO_TXTIME headroom (see StackProfile::txtime_headroom).
  sim::Duration txtime_headroom = sim::Duration::zero();
  /// quiche only: batch sends with sendmmsg (GSO must be off).
  bool use_sendmmsg = false;
};

StackProfile quiche_profile(const ProfileOptions& options = {});
StackProfile picoquic_profile(const ProfileOptions& options = {});
StackProfile ngtcp2_profile(const ProfileOptions& options = {});

}  // namespace quicsteps::stacks
