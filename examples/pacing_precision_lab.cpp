// Pacing precision lab: a low-level tour of the library. Builds the
// path by hand, attaches different senders (the ideal reference server
// vs. the stack models), dials OS timing quality up and down, and measures
// what reaches the wire — the experiment you'd run to answer "how good can
// user-space pacing get on my host?".
//
// Usage: pacing_precision_lab [payload_MiB]
#include <cstdio>
#include <cstdlib>

#include "core/quicsteps.hpp"

using namespace quicsteps;
using namespace quicsteps::sim::literals;

namespace {

struct LabResult {
  double precision_ms;
  double trains_up_to_3;
  double goodput_mbps;
};

/// Runs the ideal reference server (perfect timers, waits for the pacer)
/// over a hand-built topology with the given OS timing quality.
LabResult run_ideal(std::int64_t payload, kernel::OsTimingConfig os_timing) {
  sim::EventLoop loop;
  sim::Rng rng(42);
  framework::TopologyConfig tcfg;
  tcfg.server_qdisc = framework::QdiscKind::kFifo;  // no kernel help
  tcfg.server_os = os_timing;
  kernel::OsModel server_os(tcfg.server_os, rng.fork(1));
  framework::BottleneckPath path(loop, tcfg, rng, server_os);
  framework::SenderPath sender(loop, path.slab(), tcfg, server_os,
                               path.wire_ingress());

  quic::Connection::Config conn_cfg;
  conn_cfg.total_payload_bytes = payload;
  quic::ReferenceServer server(loop, conn_cfg, sender.egress());
  // Pacer sleeps go through the host's timer quality (50 us slack on the
  // RT host, more on the noisy one).
  kernel::TimerService::Config timer_cfg;
  timer_cfg.slack_max = os_timing.wakeup_latency_mean * 6.0 +
                        sim::Duration::micros(20);
  kernel::TimerService timers(loop, server_os, timer_cfg);
  server.set_pacer_timers(&timers);
  quic::Client client(loop, {.ack = {}, .expected_payload_bytes = payload},
                      path.ack_ingress());
  path.register_flow(conn_cfg.flow, &client, &server);
  path.finish_flow_registration();

  server.start();
  loop.run_until(sim::Time::zero() + 600_s);

  LabResult result;
  result.precision_ms =
      metrics::PrecisionAnalyzer().analyze(path.tap().capture()).precision_ms;
  result.trains_up_to_3 = metrics::TrainAnalyzer()
                              .analyze(path.tap().capture())
                              .fraction_in_trains_up_to(3);
  result.goodput_mbps =
      metrics::compute_goodput(client.stats().payload_bytes_received,
                               client.stats().first_packet_time,
                               client.stats().completion_time)
          .goodput.mbps();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const std::int64_t payload =
      (argc > 1 ? std::atoll(argv[1]) : 5) * 1024 * 1024;

  std::printf("pacing precision lab — how good can user-space pacing get?\n\n");

  // 1. The ideal sender on hosts of varying timing quality.
  struct OsVariant {
    const char* label;
    kernel::OsTimingConfig timing;
  };
  kernel::OsTimingConfig rt;  // tuned RT host (defaults)
  kernel::OsTimingConfig noisy;
  noisy.wakeup_latency_mean = 60_us;
  noisy.wakeup_latency_stddev = 80_us;
  noisy.syscall_base = 8_us;
  noisy.syscall_jitter_mean = 6_us;
  noisy.syscall_jitter_cap = 300_us;
  kernel::OsTimingConfig perfect;
  perfect.wakeup_latency_mean = sim::Duration::zero();
  perfect.wakeup_latency_stddev = sim::Duration::zero();
  perfect.syscall_base = sim::Duration::zero();
  perfect.syscall_jitter_mean = sim::Duration::zero();

  std::printf("ideal sender (waits for its pacer, fires timers exactly), "
              "no kernel help:\n");
  std::printf("%-22s %16s %14s %12s\n", "host timing", "precision [ms]",
              "trains <=3", "goodput");
  std::printf("%s\n", std::string(68, '-').c_str());
  for (const OsVariant& variant :
       {OsVariant{"perfect host", perfect}, OsVariant{"RT-tuned host", rt},
        OsVariant{"noisy host", noisy}}) {
    auto r = run_ideal(payload, variant.timing);
    std::printf("%-22s %16.3f %13.1f%% %9.2f Mb\n", variant.label,
                r.precision_ms, 100.0 * r.trains_up_to_3, r.goodput_mbps);
  }

  // 2. The measured stacks on the RT host for contrast.
  std::printf("\nstack models on the RT-tuned host (baseline qdisc):\n");
  std::printf("%-22s %16s %14s %12s\n", "stack", "precision [ms]",
              "trains <=3", "goodput");
  std::printf("%s\n", std::string(68, '-').c_str());
  const framework::StackKind stacks[] = {framework::StackKind::kQuicheSf,
                                         framework::StackKind::kPicoquic,
                                         framework::StackKind::kNgtcp2};
  for (auto stack : stacks) {
    framework::ExperimentConfig config;
    config.label = framework::to_string(stack);
    config.stack = stack;
    config.payload_bytes = payload;
    auto run = framework::Runner::run_once(config, 42);
    std::printf("%-22s %16.3f %13.1f%% %9.2f Mb\n",
                framework::to_string(stack), run.precision.precision_ms,
                100.0 * run.trains.fraction_in_trains_up_to(3),
                run.goodput.goodput.mbps());
  }

  std::printf(
      "\nreading: with ideal discipline, user-space pacing is limited only "
      "by host\ntiming quality — the paper's conclusion that 'accurate "
      "pacing can be entirely\ndone from user-space' (picoquic+BBR) holds; "
      "the stacks' gaps come from their\nevent-loop disciplines, not from "
      "an inherent user-space limit.\n");
  return 0;
}
