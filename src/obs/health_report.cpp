#include "obs/health_report.hpp"

#include <cstdio>

namespace quicsteps::obs {

namespace {

/// A no-activity gap longer than this many RTTs is a stall.
constexpr double kStallRttMultiple = 4.0;
/// Windows whose |mean wire-stage pacing error| exceeds this are spikes.
constexpr std::int64_t kSpikeMeanErrorUs = 50'000;
/// Drop-burst window: at least kDropBurstMinDrops drops and more than
/// kDropBurstFraction of the packets the bottleneck handled that window.
constexpr double kDropBurstFraction = 0.05;
constexpr std::int64_t kDropBurstMinDrops = 8;

/// Fixed six-decimal rendering for the few fractional fields — snprintf,
/// not ostream, so locale and precision state cannot leak in.
std::string fixed6(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6f", value);
  return buf;
}

HealthReport::SketchSummary summarize(const QuantileSketch* sketch) {
  HealthReport::SketchSummary out;
  if (sketch == nullptr || sketch->count() == 0) return out;
  out.count = sketch->count();
  out.p50 = sketch->quantile(0.50);
  out.p90 = sketch->quantile(0.90);
  out.p99 = sketch->quantile(0.99);
  out.p999 = sketch->quantile(0.999);
  return out;
}

void append_sketch(std::string& out, const char* key,
                   const HealthReport::SketchSummary& s) {
  out += std::string("  \"") + key + "\": {\"count\": " +
         std::to_string(s.count) + ", \"p50\": " + std::to_string(s.p50) +
         ", \"p90\": " + std::to_string(s.p90) +
         ", \"p99\": " + std::to_string(s.p99) +
         ", \"p999\": " + std::to_string(s.p999) + "},\n";
}

}  // namespace

std::string HealthReport::to_json() const {
  std::string out = "{\n";
  out += "  \"schema\": \"quicsteps-health-v1\",\n";
  out += "  \"flows\": " + std::to_string(flows) + ",\n";
  out += "  \"completed_flows\": " + std::to_string(completed_flows) + ",\n";
  out += "  \"fairness\": " + fixed6(fairness) + ",\n";
  out += "  \"window_us\": " + std::to_string(window_us) + ",\n";
  out += "  \"windows\": " + std::to_string(windows) + ",\n";
  out += "  \"evicted_windows\": " + std::to_string(evicted_windows) + ",\n";
  out += "  \"wire_packets\": " + std::to_string(wire_packets) + ",\n";
  out += "  \"delivered_packets\": " + std::to_string(delivered_packets) +
         ",\n";
  out += "  \"dropped_packets\": " + std::to_string(dropped_packets) + ",\n";
  const double handled =
      static_cast<double>(delivered_packets + dropped_packets);
  out += "  \"drop_rate\": " +
         fixed6(handled > 0.0 ? static_cast<double>(dropped_packets) / handled
                              : 0.0) +
         ",\n";
  append_sketch(out, "pacing_error_us", pacing_error_us);
  append_sketch(out, "fct_us", fct_us);

  out += "  \"stalls\": [";
  for (std::size_t i = 0; i < stalls.size(); ++i) {
    const Stall& s = stalls[i];
    out += std::string(i == 0 ? "\n" : ",\n") +
           "    {\"begin_window\": " + std::to_string(s.begin_window) +
           ", \"end_window\": " + std::to_string(s.end_window) +
           ", \"duration_us\": " + std::to_string(s.duration_us) + "}";
  }
  out += stalls.empty() ? "],\n" : "\n  ],\n";

  out += "  \"pacing_spikes\": [";
  for (std::size_t i = 0; i < pacing_spikes.size(); ++i) {
    const Spike& s = pacing_spikes[i];
    out += std::string(i == 0 ? "\n" : ",\n") +
           "    {\"window\": " + std::to_string(s.window) +
           ", \"mean_error_us\": " + std::to_string(s.mean_error_us) +
           ", \"samples\": " + std::to_string(s.samples) + "}";
  }
  out += pacing_spikes.empty() ? "],\n" : "\n  ],\n";

  out += "  \"drop_bursts\": [";
  for (std::size_t i = 0; i < drop_bursts.size(); ++i) {
    const DropBurst& b = drop_bursts[i];
    const double window_handled =
        static_cast<double>(b.dropped + b.delivered);
    out += std::string(i == 0 ? "\n" : ",\n") +
           "    {\"window\": " + std::to_string(b.window) +
           ", \"dropped\": " + std::to_string(b.dropped) +
           ", \"delivered\": " + std::to_string(b.delivered) +
           ", \"fraction\": " +
           fixed6(window_handled > 0.0
                      ? static_cast<double>(b.dropped) / window_handled
                      : 0.0) +
           "}";
  }
  out += drop_bursts.empty() ? "],\n" : "\n  ],\n";

  out += "  \"conservation\": [";
  for (std::size_t i = 0; i < conservation.size(); ++i) {
    const ConservationDelta& d = conservation[i];
    out += std::string(i == 0 ? "\n" : ",\n") + "    {\"stage\": \"" +
           d.stage + "\", \"queued\": " + std::to_string(d.queued) + "}";
  }
  out += conservation.empty() ? "],\n" : "\n  ],\n";

  out += std::string("  \"healthy\": ") + (healthy() ? "true" : "false") +
         "\n}\n";
  return out;
}

HealthReport build_health_report(const HealthContext& context,
                                 const TimeSeries* series,
                                 const QuantileSketch* pacing_error_us,
                                 const QuantileSketch* fct_us,
                                 const net::CountersTable& counters) {
  HealthReport report;
  report.flows = context.flows;
  report.completed_flows = context.completed_flows;
  report.fairness = context.fairness;
  report.pacing_error_us = summarize(pacing_error_us);
  report.fct_us = summarize(fct_us);

  for (const auto& [name, row] : counters.rows()) {
    if (row.packets_queued() != 0) {
      report.conservation.push_back({name, row.packets_queued()});
    }
  }

  if (series == nullptr || series->empty()) return report;

  report.window_us = series->width().us();
  report.windows = static_cast<std::int64_t>(series->size());
  report.evicted_windows = series->evicted_windows();

  // One ordinal walk: totals, the active range, spikes, and bursts.
  std::int64_t first_active = -1;
  std::int64_t last_active = -1;
  for (std::int64_t o = series->begin_ordinal(); o < series->end_ordinal();
       ++o) {
    const TimeSeries::Window& w = series->window(o);
    report.wire_packets += w.wire_packets;
    report.delivered_packets += w.delivered_packets;
    report.dropped_packets += w.dropped_packets;
    if (!w.idle()) {
      if (first_active < 0) first_active = o;
      last_active = o;
    }
    const std::size_t wire_stage =
        static_cast<std::size_t>(TraceStage::kWire);
    if (w.stage_count[wire_stage] > 0) {
      const std::int64_t mean =
          w.stage_error_sum_us[wire_stage] / w.stage_count[wire_stage];
      if (mean > kSpikeMeanErrorUs || mean < -kSpikeMeanErrorUs) {
        report.pacing_spikes.push_back(
            {o, mean, w.stage_count[wire_stage]});
      }
    }
    const std::int64_t handled = w.dropped_packets + w.delivered_packets;
    if (w.dropped_packets >= kDropBurstMinDrops && handled > 0 &&
        static_cast<double>(w.dropped_packets) >
            kDropBurstFraction * static_cast<double>(handled)) {
      report.drop_bursts.push_back({o, w.dropped_packets,
                                    w.delivered_packets});
    }
  }

  // Stall scan: maximal idle runs strictly inside the active range.
  const std::int64_t stall_ns = static_cast<std::int64_t>(
      kStallRttMultiple * static_cast<double>(context.rtt.ns()));
  const std::int64_t width_ns = series->width().ns();
  std::int64_t run_begin = -1;
  for (std::int64_t o = first_active; o >= 0 && o <= last_active; ++o) {
    const bool idle = series->window(o).idle();
    if (idle && run_begin < 0) run_begin = o;
    if ((!idle || o == last_active) && run_begin >= 0) {
      const std::int64_t run_end = idle ? o : o - 1;
      const std::int64_t gap_ns = (run_end - run_begin + 1) * width_ns;
      if (gap_ns > stall_ns) {
        report.stalls.push_back({run_begin, run_end, gap_ns / 1'000});
      }
      run_begin = -1;
    }
  }
  return report;
}

}  // namespace quicsteps::obs
