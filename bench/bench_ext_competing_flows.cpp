// Extension: competing flows at the shared bottleneck (paper Section 3.4
// future work). Two senders share the 40 Mbit/s link; we measure who wins,
// how fair the split is, and what pacing does to total loss. `--flows N`
// scales the pairs up to N-sender fabrics over the same bottleneck; from
// N=64 the bench switches to fabric-scale mode — homogeneous ideal-pacing
// fleets on a capacity-scaled bottleneck (per-flow fair share held
// constant as N grows), reporting Jain's index and the per-flow drop
// attribution instead of the stack matchup tables. `--flows 10000` is the
// 10k-flow scale point and completes on one core.
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>

#include "bench_common.hpp"

using namespace quicsteps;
using namespace quicsteps::bench;

namespace {

framework::ExperimentConfig contender(framework::StackKind stack,
                                      cc::CcAlgorithm cca,
                                      framework::QdiscKind qdisc,
                                      std::int64_t payload) {
  framework::ExperimentConfig config;
  config.label = framework::to_string(stack);
  config.stack = stack;
  config.cca = cca;
  config.topology.server_qdisc = qdisc;
  config.payload_bytes = payload;
  return config;
}

/// N-sender scenario: flows[i] = configs[i % configs.size()], so a
/// single-element list is a homogeneous fleet and a pair alternates.
framework::MultiFlowConfig fleet(
    int flows, const std::vector<framework::ExperimentConfig>& configs) {
  framework::MultiFlowConfig config;
  config.seed = 7;
  for (int i = 0; i < flows; ++i) {
    config.flows.push_back(framework::FlowSpec{
        .config = configs[static_cast<std::size_t>(i) % configs.size()]});
  }
  return config;
}

void print_fleet_table(
    int flows, const std::vector<const char*>& labels,
    const std::vector<framework::MultiFlowResult>& results) {
  std::printf("\n%d flows sharing the bottleneck:\n", flows);
  std::printf("%-30s %9s %9s %9s %10s %8s\n", "scenario", "min [Mb]",
              "mean [Mb]", "max [Mb]", "fairness", "drops");
  std::printf("%s\n", std::string(80, '-').c_str());
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& result = results[i];
    double min_mbps = 0.0;
    double max_mbps = 0.0;
    double sum_mbps = 0.0;
    for (std::size_t f = 0; f < result.flows.size(); ++f) {
      const double mbps = result.flows[f].goodput.goodput.mbps();
      min_mbps = f == 0 ? mbps : std::min(min_mbps, mbps);
      max_mbps = std::max(max_mbps, mbps);
      sum_mbps += mbps;
    }
    std::printf("%-30s %9.2f %9.2f %9.2f %10.3f %8lld\n", labels[i], min_mbps,
                sum_mbps / static_cast<double>(result.flows.size()), max_mbps,
                result.fairness,
                static_cast<long long>(result.bottleneck_drops));
  }
}

/// Fabric-scale fleet: N homogeneous ideal-pacing senders, bottleneck
/// capacity scaled so each flow's fair share is `share_mbps` regardless of
/// N (at the single-flow default topology a 10k fleet would measure
/// congestion collapse, not fairness). Lite metrics: per-flow aggregates
/// without the raw sample vectors, which at 10k flows dominate memory.
framework::MultiFlowConfig fabric_fleet(int flows, int share_mbps) {
  framework::ExperimentConfig flow;
  flow.stack = framework::StackKind::kIdealQuic;
  flow.payload_bytes = 64 * 1024;
  flow.topology.bottleneck_rate = net::DataRate::bits_per_second(
      static_cast<std::int64_t>(share_mbps) * 1'000'000 * flows);
  flow.topology.bottleneck_buffer_bytes =
      flow.topology.bottleneck_rate.bytes_in(sim::Duration::millis(40));

  framework::MultiFlowConfig config;
  config.seed = 7;
  config.lite_metrics = true;
  for (int i = 0; i < flows; ++i) {
    config.flows.push_back(framework::FlowSpec{.config = flow});
  }
  return config;
}

void run_fabric_scale(int flows) {
  struct Scenario {
    const char* label;
    int share_mbps;  // per-flow fair share the bottleneck is scaled to
  };
  // The second row halves the capacity: a 2:1 oversubscription that forces
  // bottleneck drops so the per-flow attribution has something to show.
  const Scenario scenarios[] = {
      {"provisioned (4 Mb fair share)", 4},
      {"oversubscribed (2 Mb fair share)", 2},
  };

  std::printf("\nfabric scale: %d homogeneous ideal-pacing flows\n", flows);
  std::printf("%-34s %9s %9s %8s %9s %8s %9s %9s %10s\n", "scenario", "done",
              "fairness", "drops", "attrib", "hitflows", "max/flow",
              "wall [s]", "flow-s/s");
  std::printf("%s\n", std::string(113, '-').c_str());

  for (const Scenario& scenario : scenarios) {
    const framework::MultiFlowConfig config =
        fabric_fleet(flows, scenario.share_mbps);
    const auto start = std::chrono::steady_clock::now();
    const framework::MultiFlowResult result = framework::run_flows(config);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();

    int completed = 0;
    std::int64_t attributed = 0;
    std::int64_t max_per_flow = 0;
    int flows_with_drops = 0;
    double flow_seconds = 0.0;  // summed per-flow transfer durations
    for (const framework::RunResult& flow : result.flows) {
      completed += flow.completed ? 1 : 0;
      attributed += flow.dropped_packets;
      max_per_flow = std::max(max_per_flow, flow.dropped_packets);
      flows_with_drops += flow.dropped_packets > 0 ? 1 : 0;
      flow_seconds += flow.goodput.elapsed.to_seconds();
    }
    // Simulated flow-seconds per wall-clock second on this core — the
    // flow_scale throughput number in BENCH_micro.json.
    std::printf("%-34s %9d %9.4f %8lld %9lld %8d %9lld %9.2f %10.1f\n",
                scenario.label, completed, result.fairness,
                static_cast<long long>(result.bottleneck_drops),
                static_cast<long long>(attributed), flows_with_drops,
                static_cast<long long>(max_per_flow), wall,
                flow_seconds / wall);
  }

  print_paper_note(
      "Fabric-scale future work: with the bottleneck provisioned to the "
      "fleet (fair share held constant), homogeneous paced senders split "
      "the link near-perfectly (Jain ~1) at any N; a 2:1 oversubscription "
      "spreads its drops across the fleet instead of starving a few flows, "
      "and every drop is attributed to exactly one sender.");
}

double fabric_wall_seconds(const framework::MultiFlowConfig& config) {
  const auto start = std::chrono::steady_clock::now();
  const framework::MultiFlowResult result = framework::run_flows(config);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  // Keep the run honest (and un-elided): every flow must have moved data.
  if (result.fairness <= 0.0) std::abort();
  return wall;
}

/// Sampled-telemetry overhead on the provisioned fabric: the same N-flow
/// run untraced vs with 1-in-100 sampled tracing + 10 ms fleet telemetry
/// windows. Returns nonzero (for CI) when `gate` > 0 and the wall-clock
/// ratio exceeds it — the telemetry spine must stay within a few percent
/// of free at fabric scale, or nobody will leave it on.
int run_telemetry_overhead(int flows, double gate) {
  const framework::MultiFlowConfig untraced = fabric_fleet(flows, 4);
  framework::MultiFlowConfig telemetry = untraced;
  telemetry.trace_sample = 100;
  telemetry.telemetry_window = sim::Duration::millis(10);
  for (framework::FlowSpec& spec : telemetry.flows) {
    spec.config.trace = true;
  }

  // Best-of-two per arm, interleaved: first-run warmup (page faults,
  // allocator growth) lands on both arms and shared-runner noise cannot
  // systematically favor one side.
  double base = fabric_wall_seconds(untraced);
  double sampled = fabric_wall_seconds(telemetry);
  base = std::min(base, fabric_wall_seconds(untraced));
  sampled = std::min(sampled, fabric_wall_seconds(telemetry));

  const double ratio = sampled / base;
  std::printf("\ntelemetry overhead at %d flows (1-in-100 trace, 10 ms "
              "windows):\n", flows);
  std::printf("  untraced %.3f s, sampled-telemetry %.3f s, ratio %.3fx",
              base, sampled, ratio);
  if (gate > 0.0) {
    const bool ok = ratio <= gate;
    std::printf("  [gate %.2fx: %s]\n", gate, ok ? "pass" : "FAIL");
    return ok ? 0 : 1;
  }
  std::printf("\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  int flow_count = 4;
  double telemetry_gate = 0.0;  // 0 = report only, no gate
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--flows") == 0) {
      flow_count = std::max(2, std::atoi(argv[i + 1]));
    } else if (std::strcmp(argv[i], "--telemetry-gate") == 0) {
      telemetry_gate = std::atof(argv[i + 1]);
    }
  }
  print_header("extD", "competing flows at the bottleneck (future work)");

  if (flow_count >= 64) {
    // Stack-matchup fleets at this N would measure wall-clock, not
    // fairness; the fabric-scale mode is the 100/1000/10000 sweep.
    run_fabric_scale(flow_count);
    return run_telemetry_overhead(flow_count, telemetry_gate);
  }

  const std::int64_t payload = framework::env_payload_bytes();

  struct Matchup {
    const char* label;
    framework::ExperimentConfig a;
    framework::ExperimentConfig b;
  };
  const Matchup matchups[] = {
      {"quiche vs quiche (no qdisc)",
       contender(framework::StackKind::kQuicheSf, cc::CcAlgorithm::kCubic,
                 framework::QdiscKind::kFqCodel, payload),
       contender(framework::StackKind::kQuicheSf, cc::CcAlgorithm::kCubic,
                 framework::QdiscKind::kFqCodel, payload)},
      {"quiche vs quiche (both FQ)",
       contender(framework::StackKind::kQuicheSf, cc::CcAlgorithm::kCubic,
                 framework::QdiscKind::kFq, payload),
       contender(framework::StackKind::kQuicheSf, cc::CcAlgorithm::kCubic,
                 framework::QdiscKind::kFq, payload)},
      {"picoquic vs TCP/TLS",
       contender(framework::StackKind::kPicoquic, cc::CcAlgorithm::kCubic,
                 framework::QdiscKind::kFqCodel, payload),
       contender(framework::StackKind::kTcpTls, cc::CcAlgorithm::kCubic,
                 framework::QdiscKind::kFqCodel, payload)},
      {"picoquic-BBR vs TCP/TLS",
       contender(framework::StackKind::kPicoquic, cc::CcAlgorithm::kBbr,
                 framework::QdiscKind::kFqCodel, payload),
       contender(framework::StackKind::kTcpTls, cc::CcAlgorithm::kCubic,
                 framework::QdiscKind::kFqCodel, payload)},
      {"quiche-FQ vs quiche-noqdisc",
       contender(framework::StackKind::kQuicheSf, cc::CcAlgorithm::kCubic,
                 framework::QdiscKind::kFq, payload),
       contender(framework::StackKind::kQuicheSf, cc::CcAlgorithm::kCubic,
                 framework::QdiscKind::kFqCodel, payload)},
  };

  // Pairs are independent two-flow simulations; fan the matchup list out
  // across the worker pool and print in input order.
  std::vector<framework::MultiFlowConfig> pairs;
  for (const auto& matchup : matchups) {
    pairs.push_back(fleet(2, {matchup.a, matchup.b}));
  }
  const auto results = framework::ParallelRunner().run_flow_sets(pairs);

  std::printf("%-30s %10s %10s %10s %10s\n", "matchup", "A [Mb]", "B [Mb]",
              "fairness", "drops");
  std::printf("%s\n", std::string(76, '-').c_str());
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& result = results[i];
    std::printf("%-30s %10.2f %10.2f %10.3f %10lld\n", matchups[i].label,
                result.flows[0].goodput.goodput.mbps(),
                result.flows[1].goodput.goodput.mbps(), result.fairness,
                static_cast<long long>(result.bottleneck_drops));
  }

  // N-flow fabrics: the same matchup themes scaled to `--flows N` senders,
  // each fabric an independent simulation fanned across the worker pool.
  const std::int64_t share = std::max<std::int64_t>(
      payload / flow_count, 256 * 1024);  // keep per-flow transfers honest
  const auto quiche_codel =
      contender(framework::StackKind::kQuicheSf, cc::CcAlgorithm::kCubic,
                framework::QdiscKind::kFqCodel, share);
  const auto quiche_fq =
      contender(framework::StackKind::kQuicheSf, cc::CcAlgorithm::kCubic,
                framework::QdiscKind::kFq, share);
  const auto picoquic =
      contender(framework::StackKind::kPicoquic, cc::CcAlgorithm::kCubic,
                framework::QdiscKind::kFqCodel, share);
  const auto picoquic_bbr =
      contender(framework::StackKind::kPicoquic, cc::CcAlgorithm::kBbr,
                framework::QdiscKind::kFqCodel, share);

  const std::vector<const char*> fleet_labels = {
      "all quiche (no qdisc)",
      "all quiche (FQ)",
      "quiche / picoquic mix",
      "all picoquic-BBR",
  };
  const std::vector<framework::MultiFlowConfig> fleets = {
      fleet(flow_count, {quiche_codel}),
      fleet(flow_count, {quiche_fq}),
      fleet(flow_count, {quiche_codel, picoquic}),
      fleet(flow_count, {picoquic_bbr}),
  };
  const auto fleet_results = framework::ParallelRunner().run_flow_sets(fleets);
  print_fleet_table(flow_count, fleet_labels, fleet_results);

  print_paper_note(
      "Section 3.4 — competing flows are exactly what the paper excludes "
      "for reproducibility and defers to future work. Expected shapes: "
      "same-stack pairs split near-fairly (index ~1); paced senders lose "
      "fewer packets than unpaced ones at the same bottleneck; BBR vs "
      "loss-based shows the well-known aggression mismatch; fairness "
      "degrades gracefully as the sender count grows.");
  return 0;
}
