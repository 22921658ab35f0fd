// quicsteps_cli — run any experiment of the reproduction from the command
// line and export its artifacts (summary/gaps/capture CSV, path-qlog
// traces).
//
//   quicsteps_cli --stack quiche-sf --qdisc fq --payload-mib 10 --reps 3
//                 --csv out/run --trace --qlog-dir out
//
// Flags (all optional; defaults reproduce the paper baseline):
//   --stack     quiche | quiche-sf | picoquic | ngtcp2 | tcp | ideal
//   --cca       cubic | newreno | bbr
//   --qdisc     fifo | fq_codel | fq | etf | etf-lt
//   --gso       off | on | paced          --gso-segments N
//   --sendmmsg                            (batch sends, GSO off)
//   --payload-mib N   --reps N   --seed N
//   --jobs N          worker threads for the repetitions (fleet mode runs
//                     on one thread)
//   --rate-mbit N     --rtt-ms N --buffer-kb N
//   --loss P          --reorder P          --gro-us N
//                     (P is a probability in [0, 1]; --rate-mbit,
//                      --payload-mib and --buffer-kb are at least 1,
//                      --rtt-ms and --gro-us at least 0, and each is
//                      capped so its value in bits, bytes or ns fits
//                      int64, --rate-mbit below DataRate::infinite())
//   --csv PREFIX      (PREFIX_summary.csv, PREFIX_gaps.<rep>.csv,
//                      PREFIX_capture.<rep>.csv, PREFIX_cwnd.<rep>.csv)
//   --trace           record per-packet path spans (pacer->wire->delivery)
//                     and the connection's recovery samples, and print
//                     the run's metrics registry
//   --qlog-dir DIR    with --trace: write DIR/path.<rep>.qlog (path-qlog
//                     JSONL: spans, ACKs, losses and recovery metrics) and
//                     DIR/path.<rep>.csv (spans) per repetition
//                     (--csv and --qlog-dir are single-flow flags)
//
// Fleet mode (--flows N with N >= 2) runs one N-flow fabric over a shared
// bottleneck instead of repetitions of a single flow. Each mode rejects
// the other mode's flags with a usage error (exit 2) instead of ignoring
// them. The fleet flags:
//   --flows N             number of competing senders (ids 10..), at
//                         most framework::Network::kMaxFlows
//   --trace-sample N      with --trace: record spans for 1 in N flows,
//                         chosen deterministically from (seed, flow id)
//   --window-ms N         fleet telemetry window width, N >= 0 (default
//                         10 when 0 and any telemetry output below is
//                         requested)
//   --timeseries-csv PATH windowed fleet time-series CSV
//   --health-report PATH  deterministic run-health JSON ('-' = stdout)
//   --health-exit         exit nonzero when the health report is unhealthy
//                         (stalls / pacing spikes / drop bursts /
//                         incomplete flows) — the CI gate switch
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <type_traits>

#include "core/quicsteps.hpp"
#include "framework/artifacts.hpp"

using namespace quicsteps;

namespace {

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr, "quicsteps_cli: %s\n(see the header of "
                       "tools/quicsteps_cli.cpp for flags)\n",
               message.c_str());
  std::exit(2);
}

/// Parses `flag`'s value as a T. The whole string must be one finite
/// number in T's range ("2x", "abc" and "-1" for an unsigned flag are all
/// rejected); anything else is a usage error naming the flag and value.
template <typename T>
T parse_number(const std::string& flag, const std::string& value) {
  T out{};
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, out);
  bool ok = ec == std::errc() && ptr == end;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(out);
  if (!ok) {
    std::string expected = "a finite number";
    if constexpr (std::is_integral_v<T>) {
      expected = "an integer in [" +
                 std::to_string(std::numeric_limits<T>::min()) + ", " +
                 std::to_string(std::numeric_limits<T>::max()) + "]";
    }
    usage_error(flag + " expects " + expected + ", got '" + value + "'");
  }
  return out;
}

/// parse_number for an integer flag that must be at least `min`.
template <typename T>
T parse_at_least(const std::string& flag, const std::string& value, T min) {
  const T out = parse_number<T>(flag, value);
  if (out < min) {
    usage_error(flag + " expects an integer >= " + std::to_string(min) +
                ", got '" + value + "'");
  }
  return out;
}

/// parse_number for an integer flag that must lie in [min, max].
template <typename T>
T parse_in_range(const std::string& flag, const std::string& value, T min,
                 T max) {
  const T out = parse_number<T>(flag, value);
  if (out < min || out > max) {
    usage_error(flag + " expects an integer in [" + std::to_string(min) +
                ", " + std::to_string(max) + "], got '" + value + "'");
  }
  return out;
}

/// parse_in_range for a flag whose value the simulator multiplies by
/// `scale` (a unit factory such as Duration::micros, or bytes per KB): the
/// ceiling keeps the product inside int64.
std::int64_t parse_scaled(const std::string& flag, const std::string& value,
                          std::int64_t min, std::int64_t scale) {
  return parse_in_range<std::int64_t>(
      flag, value, min, std::numeric_limits<std::int64_t>::max() / scale);
}

/// parse_number for a probability flag: a finite number in [0, 1].
double parse_probability(const std::string& flag, const std::string& value) {
  const double out = parse_number<double>(flag, value);
  if (out < 0.0 || out > 1.0) {
    usage_error(flag + " expects a probability in [0, 1], got '" + value +
                "'");
  }
  return out;
}

framework::StackKind parse_stack(const std::string& value) {
  if (value == "quiche") return framework::StackKind::kQuiche;
  if (value == "quiche-sf") return framework::StackKind::kQuicheSf;
  if (value == "picoquic") return framework::StackKind::kPicoquic;
  if (value == "ngtcp2") return framework::StackKind::kNgtcp2;
  if (value == "tcp") return framework::StackKind::kTcpTls;
  if (value == "ideal") return framework::StackKind::kIdealQuic;
  usage_error("unknown stack '" + value + "'");
}

cc::CcAlgorithm parse_cca(const std::string& value) {
  if (value == "cubic") return cc::CcAlgorithm::kCubic;
  if (value == "newreno") return cc::CcAlgorithm::kNewReno;
  if (value == "bbr") return cc::CcAlgorithm::kBbr;
  usage_error("unknown cca '" + value + "'");
}

framework::QdiscKind parse_qdisc(const std::string& value) {
  if (value == "fifo") return framework::QdiscKind::kFifo;
  if (value == "fq_codel") return framework::QdiscKind::kFqCodel;
  if (value == "fq") return framework::QdiscKind::kFq;
  if (value == "etf") return framework::QdiscKind::kEtf;
  if (value == "etf-lt") return framework::QdiscKind::kEtfOffload;
  usage_error("unknown qdisc '" + value + "'");
}

kernel::GsoMode parse_gso(const std::string& value) {
  if (value == "off") return kernel::GsoMode::kOff;
  if (value == "on") return kernel::GsoMode::kOn;
  if (value == "paced") return kernel::GsoMode::kPaced;
  usage_error("unknown gso mode '" + value + "'");
}

/// Fleet mode: one N-flow fabric, telemetry, health report. Returns the
/// process exit code.
int run_fleet(const framework::ExperimentConfig& base, int flows,
              std::uint32_t trace_sample, sim::Duration window,
              const std::string& timeseries_csv,
              const std::string& health_path, bool health_exit) {
  framework::MultiFlowConfig fleet;
  fleet.seed = base.seed;
  fleet.flows.assign(static_cast<std::size_t>(flows), {base});
  // Raw per-flow sample vectors cost too much at fabric scale; stream the
  // summaries instead (same switch the 10k benches use).
  fleet.lite_metrics = flows >= 64;
  fleet.trace_sample = trace_sample;
  const bool telemetry_requested = window > sim::Duration::zero() ||
                                   !timeseries_csv.empty() ||
                                   !health_path.empty();
  if (telemetry_requested) {
    fleet.telemetry_window =
        window > sim::Duration::zero() ? window : sim::Duration::millis(10);
  }

  framework::MultiFlowResult result = framework::run_flows(fleet);

  std::int64_t completed = 0;
  for (const auto& flow : result.flows) completed += flow.completed ? 1 : 0;
  std::printf("  fleet: %d flows, %lld completed, fairness=%.4f "
              "bottleneck_drops=%lld\n",
              flows, static_cast<long long>(completed), result.fairness,
              static_cast<long long>(result.bottleneck_drops));
  if (result.timeseries != nullptr) {
    std::printf("  telemetry: %zu windows (%lld evicted), width=%lld us\n",
                result.timeseries->size(),
                static_cast<long long>(result.timeseries->evicted_windows()),
                static_cast<long long>(result.timeseries->width().us()));
  }

  if (!timeseries_csv.empty() && result.timeseries != nullptr) {
    std::ofstream out(timeseries_csv);
    out << result.timeseries->to_csv();
  }

  const obs::HealthReport health = framework::fleet_health(fleet, result);
  if (!health_path.empty()) {
    const std::string json = health.to_json();
    if (health_path == "-") {
      std::fputs(json.c_str(), stdout);
      std::fputc('\n', stdout);
    } else {
      std::ofstream out(health_path);
      out << json << '\n';
    }
  }
  std::printf("  health: %s (%zu stalls, %zu pacing spikes, %zu drop "
              "bursts)\n",
              health.healthy() ? "ok" : "UNHEALTHY", health.stalls.size(),
              health.pacing_spikes.size(), health.drop_bursts.size());

  if (health_exit && !health.healthy()) return 1;
  return completed == flows ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  framework::ExperimentConfig config;
  config.label = "cli";
  std::string csv_prefix;
  std::string qlog_dir;
  bool print_trace = false;
  int flows = 1;
  std::uint32_t trace_sample = 0;
  sim::Duration window = sim::Duration::zero();
  std::string timeseries_csv;
  std::string health_path;
  bool health_exit = false;
  int jobs = 0;  // 0 = QUICSTEPS_JOBS env, then hardware concurrency.
  // The last flag given that only one mode reads.
  std::string single_flow_flag;
  std::string fleet_flag;

  auto next_value = [&](int& i) -> std::string {
    if (i + 1 >= argc) usage_error(std::string(argv[i]) + " needs a value");
    return argv[++i];
  };

  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--stack") {
      config.stack = parse_stack(next_value(i));
      config.label = framework::to_string(config.stack);
    } else if (flag == "--cca") {
      config.cca = parse_cca(next_value(i));
    } else if (flag == "--qdisc") {
      config.topology.server_qdisc = parse_qdisc(next_value(i));
    } else if (flag == "--gso") {
      config.gso = parse_gso(next_value(i));
    } else if (flag == "--gso-segments") {
      config.gso_segments = parse_at_least(flag, next_value(i), 1);
    } else if (flag == "--sendmmsg") {
      config.use_sendmmsg = true;
    } else if (flag == "--payload-mib") {
      constexpr std::int64_t kMiB = 1024 * 1024;
      config.payload_bytes = parse_scaled(flag, next_value(i), 1, kMiB) * kMiB;
    } else if (flag == "--reps") {
      config.repetitions = parse_at_least(flag, next_value(i), 1);
    } else if (flag == "--seed") {
      config.seed = parse_number<std::uint64_t>(flag, next_value(i));
    } else if (flag == "--jobs") {
      jobs = parse_number<int>(flag, next_value(i));
    } else if (flag == "--rate-mbit") {
      config.topology.bottleneck_rate =
          net::DataRate::megabits_per_second(parse_in_range<std::int64_t>(
              flag, next_value(i), 1,
              (net::DataRate::infinite().bps() - 1) / 1'000'000));
    } else if (flag == "--rtt-ms") {
      // Halved in nanoseconds, so an odd RTT keeps its half millisecond.
      const sim::Duration rtt = sim::Duration::millis(
          parse_scaled(flag, next_value(i), 0, 1'000'000));
      config.topology.path_delay_one_way = rtt / 2;
    } else if (flag == "--buffer-kb") {
      // A zero-byte buffer drops every packet.
      config.topology.bottleneck_buffer_bytes =
          parse_scaled(flag, next_value(i), 1, 1000) * 1000;
    } else if (flag == "--loss") {
      config.topology.path_loss_probability =
          parse_probability(flag, next_value(i));
    } else if (flag == "--reorder") {
      config.topology.path_reorder_probability =
          parse_probability(flag, next_value(i));
    } else if (flag == "--gro-us") {
      config.topology.client_gro_window =
          sim::Duration::micros(parse_scaled(flag, next_value(i), 0, 1000));
    } else if (flag == "--csv") {
      csv_prefix = next_value(i);
      config.keep_capture = true;
      single_flow_flag = flag;
    } else if (flag == "--trace") {
      print_trace = true;
    } else if (flag == "--qlog-dir") {
      qlog_dir = next_value(i);
      single_flow_flag = flag;
    } else if (flag == "--flows") {
      flows = parse_in_range(
          flag, next_value(i), 1,
          static_cast<int>(framework::Network::kMaxFlows));
    } else if (flag == "--trace-sample") {
      trace_sample = parse_number<std::uint32_t>(flag, next_value(i));
      fleet_flag = flag;
    } else if (flag == "--window-ms") {
      window = sim::Duration::millis(
          parse_scaled(flag, next_value(i), 0, 1'000'000));
      fleet_flag = flag;
    } else if (flag == "--timeseries-csv") {
      timeseries_csv = next_value(i);
      fleet_flag = flag;
    } else if (flag == "--health-report") {
      health_path = next_value(i);
      fleet_flag = flag;
    } else if (flag == "--health-exit") {
      health_exit = true;
      fleet_flag = flag;
    } else if (flag == "--help" || flag == "-h") {
      std::printf("see the header comment of tools/quicsteps_cli.cpp\n");
      return 0;
    } else {
      usage_error("unknown flag '" + flag + "'");
    }
  }

  if (flows > 1 && !single_flow_flag.empty()) {
    usage_error(single_flow_flag +
                " is a single-flow flag, and fleet mode (--flows " +
                std::to_string(flows) + ") does not read it");
  }
  if (flows == 1 && !fleet_flag.empty()) {
    usage_error(fleet_flag +
                " is a fleet flag, and single-flow mode does not read it "
                "(a fleet needs --flows N with N >= 2)");
  }

  // A fleet runs once with N flows; single-flow mode runs repetitions.
  std::printf("quicsteps %s — %s, %s, qdisc=%s, %s%s, %lld MiB x %d%s\n",
              kVersion, config.label.c_str(), cc::to_string(config.cca),
              framework::to_string(config.topology.server_qdisc),
              kernel::to_string(config.gso),
              config.use_sendmmsg ? "+sendmmsg" : "",
              static_cast<long long>(config.payload_bytes / (1024 * 1024)),
              flows > 1 ? flows : config.repetitions,
              flows > 1 ? " flows" : "");

  if (!qlog_dir.empty()) print_trace = true;  // --qlog-dir implies --trace
  config.trace = print_trace;

  if (flows > 1) {
    return run_fleet(config, flows, trace_sample, window, timeseries_csv,
                     health_path, health_exit);
  }
  // The cwnd CSV is the run's recovery samples.
  if (!csv_prefix.empty()) config.trace = true;

  std::ofstream summary;
  if (!csv_prefix.empty()) {
    summary.open(csv_prefix + "_summary.csv");
  }

  // Repetitions fan out across the worker pool; results come back in rep
  // order and are bit-identical to a serial loop, so the report below is
  // unchanged by --jobs.
  std::vector<framework::RunResult> runs =
      framework::ParallelRunner(jobs).run_all(config);
  for (int rep = 0; rep < config.repetitions; ++rep) {
    const auto& run = runs[static_cast<std::size_t>(rep)];
    std::printf(
        "  rep %d: %s goodput=%.2f Mbit/s dropped=%lld lost=%lld "
        "trains<=5=%.1f%% precision=%.3f ms\n",
        rep, run.completed ? "ok" : "INCOMPLETE",
        run.goodput.goodput.mbps(),
        static_cast<long long>(run.dropped_packets),
        static_cast<long long>(run.packets_declared_lost),
        100.0 * run.trains.fraction_in_trains_up_to(5),
        run.precision.precision_ms);
    if (print_trace && run.trace != nullptr) {
      const obs::TraceSummary summary = obs::summarize_trace(*run.trace);
      std::printf("    trace: %zu spans over %lld packets, %lld complete "
                  "pacer->delivery chains\n",
                  run.trace->events.size(),
                  static_cast<long long>(summary.packets),
                  static_cast<long long>(summary.complete_chains));
      for (const auto& se : summary.errors) {
        std::printf("    %-24s mean_error=%9.1f us  n=%lld\n",
                    obs::to_string(se.stage), se.mean_us(),
                    static_cast<long long>(se.error_us.count()));
      }
      obs::MetricsRegistry registry;
      registry.add_counter("pacer/releases", run.pacer_releases);
      registry.add_counter("pacer/deferrals", run.pacer_deferrals);
      registry.set_gauge("bottleneck/dropped_packets", run.dropped_packets);
      registry.set_gauge("trace/complete_chains", summary.complete_chains);
      for (const auto& se : summary.errors) {
        registry.sketch(std::string("pacing_error/") +
                        obs::to_string(se.stage)) = se.error_us;
      }
      std::printf("    metrics registry:\n");
      const std::string metrics_text = registry.to_string();
      std::size_t start = 0;
      while (start < metrics_text.size()) {
        const std::size_t end = metrics_text.find('\n', start);
        std::printf("      %s\n",
                    metrics_text.substr(start, end - start).c_str());
        start = end + 1;
      }
      if (!qlog_dir.empty()) {
        const std::string base = qlog_dir + "/path." + std::to_string(rep);
        std::ofstream path_qlog(base + ".qlog");
        framework::write_path_qlog(path_qlog, run, config.label);
        std::ofstream path_csv(base + ".csv");
        framework::write_path_trace_csv(path_csv, run);
      }
    }
    if (!csv_prefix.empty()) {
      framework::write_summary_csv(summary, config.label, run, rep == 0);
      std::string tag = ".";
      tag += std::to_string(rep);
      tag += ".csv";
      std::ofstream gaps(csv_prefix + "_gaps" + tag);
      framework::write_gaps_csv(gaps, run);
      std::ofstream cwnd(csv_prefix + "_cwnd" + tag);
      framework::write_cwnd_trace_csv(cwnd, run);
      if (run.capture != nullptr) {
        std::ofstream capture(csv_prefix + "_capture" + tag);
        framework::write_capture_csv(capture, *run.capture);
      }
    }
  }

  auto agg = framework::aggregate(config.label, runs);
  std::fputs(framework::render_goodput_table({agg}, "summary").c_str(),
             stdout);
  std::fputs(framework::render_train_figure({agg}, "packet trains").c_str(),
             stdout);
  return agg.completed == agg.repetitions ? 0 : 1;
}
