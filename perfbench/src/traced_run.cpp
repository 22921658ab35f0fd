#include "traced_run.hpp"

#include <chrono>
#include <memory>
#include <utility>
#include <vector>

#include "check/determinism_hasher.hpp"
#include "framework/network.hpp"
#include "metrics/capture_analysis.hpp"
#include "obs/flow_sampler.hpp"
#include "obs/health_report.hpp"
#include "obs/path_timeline.hpp"
#include "obs/quantile_sketch.hpp"
#include "obs/time_series.hpp"
#include "obs/trace.hpp"
#include "sim/random.hpp"

namespace perfbench {

namespace {

namespace qs = quicsteps;
namespace fw = quicsteps::framework;

static_assert(qs::sim::kLoopProfilingEnabled,
              "the traced pass charges events by the loop profile; build "
              "with QUICSTEPS_TRACE_ENABLED");

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double seconds(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// The fleet time series' counter source, as run_flows installs it.
qs::obs::TimeSeries::Snapshot bottleneck_snapshot(void* ctx) {
  const qs::net::Counters& c =
      static_cast<fw::Network*>(ctx)->path().bottleneck().counters();
  qs::obs::TimeSeries::Snapshot snap;
  snap.delivered_packets = c.packets_out;
  snap.dropped_packets = c.packets_dropped;
  snap.backlog_packets = c.packets_queued();
  return snap;
}

}  // namespace

double Ledger::loop_s() const {
  double s = 0.0;
  for (double v : class_s) s += v;
  return s;
}

double Ledger::covered_s() const {
  double s = loop_s();
  for (double v : span_s) s += v;
  return s;
}

Ledger& Ledger::operator+=(const Ledger& other) {
  for (std::size_t i = 0; i < span_s.size(); ++i) span_s[i] += other.span_s[i];
  for (std::size_t c = 0; c < class_s.size(); ++c) {
    class_s[c] += other.class_s[c];
    class_events[c] += other.class_events[c];
  }
  tap_pkts += other.tap_pkts;
  wall_s += other.wall_s;
  return *this;
}

TracedRun traced_run(const fw::MultiFlowConfig& config) {
  TracedRun out;
  fw::MultiFlowResult& result = out.result;
  const std::size_t n = config.flows.size();
  std::array<std::int64_t, Ledger::kSpanCount> span_ns{};
  std::array<std::int64_t, qs::sim::kEventClassCount> class_ns{};
  std::int64_t tap_ns = 0;
  qs::obs::HealthReport health;

  const std::int64_t begin = now_ns();
  std::int64_t mark = 0;
  {
    qs::sim::EventLoop loop;
    qs::sim::Rng rng(config.seed);
    result.flows.resize(n);

    mark = now_ns();
    auto net = std::make_unique<fw::Network>(loop, config, rng, result.flows);
    span_ns[Ledger::kSetup] = now_ns() - mark;

    mark = now_ns();
    qs::obs::TraceBus bus;
    bool tracing = false;
    for (const fw::FlowSpec& spec : config.flows) {
      tracing = tracing || spec.config.trace;
    }
    const qs::obs::FlowSampler sampler(config.seed, config.trace_sample);
    if (tracing && qs::obs::kTraceEnabled) {
      net->set_trace(bus, sampler);
      std::size_t hint = 0;
      for (const fw::FlowSpec& spec : config.flows) {
        hint += static_cast<std::size_t>(spec.config.payload_bytes / 1200 + 64) *
                12;
      }
      bus.reserve(hint / sampler.every() + 1024);
    }
    const bool telemetry = !config.telemetry_window.is_zero();
    std::unique_ptr<qs::obs::TimeSeries> series;
    qs::obs::CounterHandle wire_packets;
    qs::obs::CounterHandle wire_bytes;
    if (telemetry) {
      series = std::make_unique<qs::obs::TimeSeries>(
          config.telemetry_window, config.telemetry_capacity,
          &bottleneck_snapshot, net.get());
      wire_packets = result.metrics.counter("fleet/wire_packets");
      wire_bytes = result.metrics.counter("fleet/wire_bytes");
    }
    span_ns[Ledger::kTelemetry] += now_ns() - mark;

    mark = now_ns();
    qs::metrics::FlowCaptureDemux demux;
    std::vector<qs::check::DeterminismHasher> hashers(n);
    qs::metrics::CaptureAnalyzer::Config analyzer_config;
    analyzer_config.lite = config.lite_metrics;
    for (std::size_t i = 0; i < n; ++i) {
      demux.add_flow(net->host(i).flow_id(), analyzer_config);
    }
    if (config.flows[0].config.topology.batched_datapath) {
      net->path().tap().set_retain_capture(false);
    }
    const qs::sim::Time deadline = net->deadline();
    qs::obs::TimeSeries* ts = series.get();
    std::int64_t tap_pkts = 0;
    net->path().tap().set_on_packet(
        [&demux, &hashers, &tap_ns, &tap_pkts, ts, wire_packets, wire_bytes,
         deadline](const qs::net::Packet& pkt) {
          if (pkt.wire_time > deadline) return;  // run_until never gets here
          const std::int64_t t0 = now_ns();
          if (ts != nullptr) {
            ts->on_wire_packet(pkt.wire_time, pkt.size_bytes);
            wire_packets.add(1);
            wire_bytes.add(pkt.size_bytes);
          }
          const int slot = demux.add(pkt);
          if (slot >= 0) {
            hashers[static_cast<std::size_t>(slot)].add_i64(pkt.wire_time.ns());
          }
          ++tap_pkts;
          tap_ns += now_ns() - t0;
        });
    span_ns[Ledger::kTap] += now_ns() - mark;

    mark = now_ns();
    std::int64_t tap_mark = tap_ns;
    net->start();
    span_ns[Ledger::kStart] = now_ns() - mark - (tap_ns - tap_mark);

    // Exactly one class's executed count moves per run_one() call.
    const qs::sim::LoopStats& stats = loop.stats();
    std::array<std::uint64_t, qs::sim::kEventClassCount> seen = stats.executed;
    tap_mark = tap_ns;
    mark = now_ns();
    while (loop.run_one()) {
      const std::int64_t t = now_ns();
      std::size_t c = 0;
      while (c + 1 < seen.size() && stats.executed[c] == seen[c]) ++c;
      seen[c] = stats.executed[c];
      class_ns[c] += t - mark - (tap_ns - tap_mark);
      ++out.ledger.class_events[c];
      tap_mark = tap_ns;
      mark = t;
      if (loop.now() > deadline) break;
    }
    span_ns[Ledger::kTap] += tap_ns;
    out.ledger.tap_pkts = tap_pkts;

    mark = now_ns();
    if (telemetry) series->finalize();
    qs::obs::TraceData all_spans;
    if (tracing) all_spans = bus.take();
    if (telemetry && tracing) series->fold_spans(all_spans.events);
    span_ns[Ledger::kTelemetry] += now_ns() - mark;

    mark = now_ns();
    for (std::size_t i = 0; i < n; ++i) {
      net->host(i).endpoint().fill_result(result.flows[i]);
    }
    span_ns[Ledger::kExtract] += now_ns() - mark;

    mark = now_ns();
    for (std::size_t i = 0; i < n; ++i) {
      qs::metrics::CaptureAnalysis analysis = demux.finish(i);
      fw::RunResult& flow = result.flows[i];
      flow.gaps = std::move(analysis.gaps);
      flow.trains = std::move(analysis.trains);
      flow.precision = std::move(analysis.precision);
      flow.wire_data_packets = analysis.wire_data_packets;
    }
    span_ns[Ledger::kFinish] = now_ns() - mark;

    mark = now_ns();
    std::vector<double> goodputs(n);
    for (std::size_t i = 0; i < n; ++i) {
      fw::RunResult& flow = result.flows[i];
      flow.wire_hash = hashers[i].digest();
      flow.dropped_packets = net->path().bottleneck_drops(net->host(i).flow_id());
      goodputs[i] = flow.goodput.goodput.mbps();
    }
    result.fairness = fw::jain_index(goodputs);
    result.bottleneck_drops = net->path().bottleneck_drops();
    result.counters = net->counters_table();
    qs::obs::MetricsRegistry& reg = result.metrics;
    reg.add_counters_table("", result.counters);
    for (std::size_t c = 0; c < qs::sim::kEventClassCount; ++c) {
      const char* cls = qs::sim::to_string(static_cast<qs::sim::EventClass>(c));
      reg.add_counter(std::string("loop/scheduled/") + cls,
                      static_cast<std::int64_t>(stats.scheduled[c]));
      reg.add_counter(std::string("loop/executed/") + cls,
                      static_cast<std::int64_t>(stats.executed[c]));
    }
    reg.add_counter("loop/cancelled", static_cast<std::int64_t>(stats.cancelled));
    reg.add_counter("loop/overflow_scheduled",
                    static_cast<std::int64_t>(stats.overflow_scheduled));
    reg.add_counter("loop/drain_executed",
                    static_cast<std::int64_t>(stats.drain_executed));
    reg.add_counter("loop/drain_batched",
                    static_cast<std::int64_t>(stats.drain_batched));
    reg.set_gauge("loop/max_pending", static_cast<std::int64_t>(stats.max_pending));
    for (std::size_t i = 0; i < n; ++i) {
      const fw::RunResult& flow = result.flows[i];
      const std::string prefix =
          "flow" + std::to_string(net->host(i).flow_id()) + "/";
      reg.set_gauge(prefix + "bottleneck_drops", flow.dropped_packets);
      reg.add_counter(prefix + "pacer_releases", flow.pacer_releases);
      reg.add_counter(prefix + "pacer_deferrals", flow.pacer_deferrals);
    }
    span_ns[Ledger::kExtract] += now_ns() - mark;

    mark = now_ns();
    std::vector<qs::obs::QuantileSketch> flow_sketches(
        telemetry && tracing ? n : 0);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t id = net->host(i).flow_id();
      if (!tracing || !config.flows[i].config.trace || !sampler.sampled(id)) {
        continue;
      }
      auto flow_trace = std::make_shared<qs::obs::TraceData>();
      if (n == 1) {
        *flow_trace = std::move(all_spans);
      } else {
        flow_trace->components = all_spans.components;
        for (const qs::obs::SpanEvent& ev : all_spans.events) {
          if (ev.flow == id) flow_trace->events.push_back(ev);
        }
      }
      if (!flow_sketches.empty()) {
        for (const qs::obs::SpanEvent& ev : flow_trace->events) {
          if (ev.stage == qs::obs::TraceStage::kWire && ev.intended.ns() != 0) {
            flow_sketches[i].observe((ev.at - ev.intended).us());
          }
        }
      }
      result.flows[i].trace = std::move(flow_trace);
    }
    for (std::size_t i = 0; i < n; ++i) {
      const fw::RunResult& flow = result.flows[i];
      if (flow.trace == nullptr) continue;
      const std::string prefix =
          "flow" + std::to_string(net->host(i).flow_id()) + "/";
      const qs::obs::TraceSummary summary = qs::obs::summarize_trace(*flow.trace);
      reg.set_gauge(prefix + "complete_chains", summary.complete_chains);
      for (const qs::obs::StageErrorReport& se : summary.errors) {
        reg.histogram(prefix + "pacing_error/" + qs::obs::to_string(se.stage)) =
            se.error_us;
      }
    }
    if (telemetry) {
      if (tracing) {
        qs::obs::QuantileSketch& pacing = reg.sketch("fleet/pacing_error_us/wire");
        for (const qs::obs::QuantileSketch& sketch : flow_sketches) {
          pacing.merge(sketch);
        }
      }
      qs::obs::QuantileSketch& fct = reg.sketch("fleet/fct_us");
      for (const fw::RunResult& flow : result.flows) {
        if (flow.completed) fct.observe(flow.goodput.elapsed.us());
      }
      result.timeseries = std::move(series);
    }
    span_ns[Ledger::kTelemetry] += now_ns() - mark;

    mark = now_ns();
    health = fw::fleet_health(config, result);
    span_ns[Ledger::kHealth] = now_ns() - mark;

    mark = now_ns();
    net.reset();
  }  // the loop, bus, demux and hashers go here too
  const std::int64_t end = now_ns();
  span_ns[Ledger::kTeardown] = end - mark;

  for (std::size_t i = 0; i < span_ns.size(); ++i) {
    out.ledger.span_s[i] = seconds(span_ns[i]);
  }
  for (std::size_t c = 0; c < class_ns.size(); ++c) {
    out.ledger.class_s[c] = seconds(class_ns[c]);
  }
  out.ledger.wall_s = seconds(end - begin);
  out.health_json = health.to_json();
  return out;
}

}  // namespace perfbench
