// Observability spine tests (src/obs/): TraceBus mechanics, GSO span
// expansion, MetricsRegistry determinism, the per-run trace digest
// (packet grouping + per-stage pacing error), byte-pinned exporter
// goldens, and a traced end-to-end run whose span chains must be complete
// and must agree with the wire capture and its precision metric.
#include <algorithm>
#include <map>
#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/quicsteps.hpp"

namespace quicsteps {
namespace {

using framework::ExperimentConfig;
using framework::Runner;
using framework::StackKind;
using obs::SpanEvent;
using obs::TraceBus;
using obs::TraceData;
using obs::TraceStage;

net::Packet span_packet(std::uint64_t id, std::uint64_t number,
                        std::uint32_t flow, std::int64_t bytes,
                        sim::Time intended = sim::Time::from_ns(0)) {
  net::Packet pkt;
  pkt.id = id;
  pkt.packet_number = number;
  pkt.flow = flow;
  pkt.size_bytes = bytes;
  pkt.expected_send_time = intended;
  return pkt;
}

// ------------------------------------------------------------- TraceBus

TEST(TraceBus, ComponentIdsFollowWiringOrder) {
  TraceBus bus;
  EXPECT_EQ(bus.register_component("stack"), 0u);
  EXPECT_EQ(bus.register_component("qdisc/fq"), 1u);
  EXPECT_EQ(bus.register_component("nic"), 2u);
  ASSERT_EQ(bus.component_names().size(), 3u);
  EXPECT_EQ(bus.component_names()[1], "qdisc/fq");

  bus.publish(obs::make_span(TraceStage::kNicTx, 2,
                             sim::Time::from_ns(5'000),
                             span_packet(1, 1, 1, 1200)));
  EXPECT_EQ(bus.events().size(), 1u);

  TraceData data = bus.take();
  EXPECT_EQ(data.events.size(), 1u);
  EXPECT_EQ(data.components.size(), 3u);
  EXPECT_TRUE(bus.events().empty());     // the bus is drained...
  EXPECT_TRUE(bus.component_names().empty());  // ...table and all
}

TEST(TraceBus, GsoBufferExpandsIntoPerSegmentSpans) {
  TraceBus bus;
  const std::uint16_t id = bus.register_component("socket");

  auto segments = std::make_shared<std::vector<net::Packet>>();
  segments->push_back(span_packet(10, 100, 1, 1200, sim::Time::from_ns(1000)));
  segments->push_back(span_packet(11, 101, 1, 1200, sim::Time::from_ns(2000)));
  net::Packet carrier = span_packet(99, 100, 1, 2400);
  carrier.gso_segments = segments;
  ASSERT_TRUE(carrier.is_gso_buffer());

  obs::publish_packet_span(&bus, TraceStage::kSocketWrite, id,
                           sim::Time::from_ns(3000), carrier);
  // The carrier id never appears: each wire packet keeps its own chain.
  ASSERT_EQ(bus.events().size(), 2u);
  EXPECT_EQ(bus.events()[0].packet_id, 10u);
  EXPECT_EQ(bus.events()[1].packet_id, 11u);
  EXPECT_EQ(bus.events()[1].intended.ns(), 2000);
  EXPECT_EQ(bus.events()[1].at.ns(), 3000);

  obs::publish_packet_span(&bus, TraceStage::kSocketWrite, id,
                           sim::Time::from_ns(4000),
                           span_packet(12, 102, 1, 1200));
  EXPECT_EQ(bus.events().size(), 3u);  // non-GSO publishes exactly one
}

TEST(TraceBus, PublishPacketSpanWithNullBusIsANoOp) {
  // Direct callers (not going through QUICSTEPS_TRACE_SPAN, which checks
  // first) may hold a null bus when tracing is disabled.
  obs::publish_packet_span(nullptr, TraceStage::kSocketWrite, 0,
                           sim::Time::from_ns(1000),
                           span_packet(1, 100, 1, 1200));
}

// ------------------------------------------------------------ registry

TEST(MetricsRegistry, EmitsSortedAcrossKindsRegardlessOfInsertionOrder) {
  obs::MetricsRegistry reg;
  reg.add_counter("zz/events", 2);
  reg.add_counter("zz/events", 3);  // counters accumulate
  reg.set_gauge("aa/depth", 7);
  reg.set_gauge("aa/depth", 9);  // gauges last-write-win
  reg.sketch("mm/err").observe(5);
  EXPECT_EQ(reg.to_string(),
            "aa/depth: gauge 9\n"
            "mm/err: sketch count=1 sum=5 min=5 max=5 p50=5 p90=5 p99=5 "
            "p999=5\n"
            "zz/events: counter 5\n");
}

TEST(MetricsRegistry, CountersTableFoldsIntoPerRowGauges) {
  net::Counters c;
  c.count_in(100);
  c.count_in(100);
  c.count_out(100);
  c.count_drop(100);
  net::CountersTable table;
  table.add("tbf", c);

  obs::MetricsRegistry reg;
  reg.add_counters_table("bottleneck/", table);
  EXPECT_EQ(reg.gauges().at("bottleneck/tbf/packets_in"), 2);
  EXPECT_EQ(reg.gauges().at("bottleneck/tbf/packets_out"), 1);
  EXPECT_EQ(reg.gauges().at("bottleneck/tbf/packets_dropped"), 1);
  EXPECT_EQ(reg.gauges().at("bottleneck/tbf/queue_peak"), 2);
}

// ------------------------------------------------------ per-run digest

TraceData two_packet_trace() {
  TraceData data;
  data.components = {"stack", "nic"};
  // Flow 1, packet 42: paced, full chain.
  const auto paced =
      span_packet(42, 7, 1, 1200, sim::Time::from_ns(90'000));
  data.events.push_back(obs::make_span(TraceStage::kPacerRelease, 0,
                                       sim::Time::from_ns(100'000), paced));
  data.events.push_back(obs::make_span(TraceStage::kWire, 1,
                                       sim::Time::from_ns(150'000), paced));
  data.events.push_back(obs::make_span(TraceStage::kDelivery, 1,
                                       sim::Time::from_ns(200'000), paced));
  // Flow 0, packet 9: an unpaced ACK seen only at the wire.
  data.events.push_back(obs::make_span(TraceStage::kWire, 1,
                                       sim::Time::from_ns(120'000),
                                       span_packet(9, 3, 0, 80)));
  return data;
}

/// Reference for summarize_trace: a plain ordered map from (flow, packet
/// id) to the packet's stage mask and pacer intent (the first non-zero one
/// in publication order).
struct RefPacket {
  unsigned stages = 0;
  sim::Time intended;
  bool has(TraceStage stage) const {
    return ((stages >> static_cast<unsigned>(stage)) & 1u) != 0;
  }
};
std::map<std::pair<std::uint32_t, std::uint64_t>, RefPacket>
reference_packets(const TraceData& data) {
  std::map<std::pair<std::uint32_t, std::uint64_t>, RefPacket> packets;
  for (const SpanEvent& ev : data.events) {
    RefPacket& p = packets[{ev.flow, ev.packet_id}];
    p.stages |= 1u << static_cast<unsigned>(ev.stage);
    if (p.intended.ns() == 0) p.intended = ev.intended;
  }
  return packets;
}

/// summarize_trace agrees with the reference on every aggregate.
void expect_summary_matches_reference(const TraceData& data) {
  const auto packets = reference_packets(data);
  std::int64_t complete = 0;
  for (const auto& [key, p] : packets) {
    if (p.has(TraceStage::kPacerRelease) && p.has(TraceStage::kDelivery)) {
      ++complete;
    }
  }
  std::vector<obs::QuantileSketch> errors(obs::kTraceStageCount);
  for (const SpanEvent& ev : data.events) {
    const RefPacket& p = packets.at({ev.flow, ev.packet_id});
    if (p.intended.ns() == 0) continue;
    errors[static_cast<std::size_t>(ev.stage)].observe(
        (ev.at - p.intended).us());
  }

  const obs::TraceSummary summary = obs::summarize_trace(data);
  EXPECT_EQ(summary.packets, static_cast<std::int64_t>(packets.size()));
  EXPECT_EQ(summary.complete_chains, complete);
  std::size_t next = 0;
  for (std::size_t stage = 0; stage < errors.size(); ++stage) {
    const obs::QuantileSketch& want = errors[stage];
    if (want.count() == 0) continue;
    ASSERT_LT(next, summary.errors.size());
    const obs::StageErrorReport& got = summary.errors[next++];
    EXPECT_EQ(got.stage, static_cast<TraceStage>(stage));
    // count, sum, min, max and the four quantiles.
    EXPECT_EQ(got.error_us.to_string(), want.to_string());
  }
  EXPECT_EQ(next, summary.errors.size());
}

TEST(PathTimeline, GroupsByFlowAndPacketIdInDeterministicOrder) {
  // One group per (flow, packet id): the paced packet's three spans form
  // one complete chain, and the ACK is a packet of its own.
  const obs::TraceSummary summary = obs::summarize_trace(two_packet_trace());
  EXPECT_EQ(summary.packets, 2);
  EXPECT_EQ(summary.complete_chains, 1);

  // The same id on another flow is another packet, and the digest does
  // not depend on the order spans were published in.
  TraceData data = two_packet_trace();
  data.events.push_back(obs::make_span(TraceStage::kWire, 1,
                                       sim::Time::from_ns(130'000),
                                       span_packet(42, 5, 0, 80)));
  std::reverse(data.events.begin(), data.events.end());
  const obs::TraceSummary more = obs::summarize_trace(data);
  EXPECT_EQ(more.packets, 3);
  EXPECT_EQ(more.complete_chains, 1);
  ASSERT_EQ(more.errors.size(), summary.errors.size());
  for (std::size_t i = 0; i < more.errors.size(); ++i) {
    EXPECT_EQ(more.errors[i].stage, summary.errors[i].stage);
    EXPECT_EQ(more.errors[i].error_us.sum(), summary.errors[i].error_us.sum());
  }
}

TEST(PathTimeline, StageErrorsDiffAgainstIntentInPathOrder) {
  const obs::TraceSummary summary = obs::summarize_trace(two_packet_trace());
  const auto& reports = summary.errors;
  // Only the paced packet contributes; its three stages appear in path
  // order with exact microsecond errors (at - intended).
  ASSERT_EQ(reports.size(), 3u);
  EXPECT_EQ(reports[0].stage, TraceStage::kPacerRelease);
  EXPECT_EQ(reports[0].error_us.sum(), 10);
  EXPECT_EQ(reports[1].stage, TraceStage::kWire);
  EXPECT_EQ(reports[1].error_us.sum(), 60);
  EXPECT_EQ(reports[2].stage, TraceStage::kDelivery);
  EXPECT_EQ(reports[2].error_us.sum(), 110);
  EXPECT_DOUBLE_EQ(reports[2].mean_us(), 110.0);
  for (const auto& report : reports) {
    EXPECT_EQ(report.error_us.count(), 1);
  }
}

TEST(PathTimeline, SummarizeTraceMatchesTimelineDerivation) {
  expect_summary_matches_reference(two_packet_trace());
}

// -------------------------------------------------------- exporter goldens

TraceData golden_trace() {
  TraceData data;
  data.components = {"stack", "nic"};
  const auto paced =
      span_packet(42, 7, 1, 1200, sim::Time::from_ns(1'230'000));
  data.events.push_back(obs::make_span(TraceStage::kPacerRelease, 0,
                                       sim::Time::from_ns(1'234'567),
                                       paced));
  data.events.push_back(obs::make_span(TraceStage::kNicTx, 1,
                                       sim::Time::from_ns(1'250'000),
                                       paced));
  data.events.push_back(obs::make_span(TraceStage::kWire, 1,
                                       sim::Time::from_ns(2'000'500),
                                       span_packet(43, 8, 2, 1100)));
  return data;
}

constexpr char kGoldenHeader[] =
    "{\"qlog_format\":\"JSON-SEQ\",\"qlog_version\":\"0.4\","
    "\"title\":\"golden\",\"generator\":\"quicsteps\","
    "\"trace\":{\"time_unit\":\"us\",\"components\":[\"stack\",\"nic\"]}}\n";
constexpr char kGoldenSpan1[] =
    "{\"time\":1234.567,\"name\":\"transport:pacer_release\","
    "\"data\":{\"component\":\"stack\",\"flow\":1,\"packet_number\":7,"
    "\"packet_id\":42,\"size\":1200,\"intended_us\":1230.000}}\n";
constexpr char kGoldenSpan2[] =
    "{\"time\":1250.000,\"name\":\"kernel:nic_tx\","
    "\"data\":{\"component\":\"nic\",\"flow\":1,\"packet_number\":7,"
    "\"packet_id\":42,\"size\":1200,\"intended_us\":1230.000}}\n";
constexpr char kGoldenSpan3[] =
    "{\"time\":2000.500,\"name\":\"wire:packet_departure\","
    "\"data\":{\"component\":\"nic\",\"flow\":2,\"packet_number\":8,"
    "\"packet_id\":43,\"size\":1100}}\n";

TEST(Exporters, PathQlogJsonlIsBytePinned) {
  std::ostringstream out;
  obs::write_path_qlog(out, golden_trace(), "golden");
  EXPECT_EQ(out.str(), std::string(kGoldenHeader) + kGoldenSpan1 +
                           kGoldenSpan2 + kGoldenSpan3);
}

// The golden spans plus two recovery samples: an ACK at the NIC span's
// instant (it goes after that span) with a sub-µs smoothed RTT, and a loss
// after the last span, before the first RTT sample (no pacing rate yet).
TraceData golden_trace_with_recovery() {
  TraceData data = golden_trace();
  obs::RecoverySample ack;
  ack.at = sim::Time::from_ns(1'250'000);
  ack.smoothed_rtt = sim::Duration::nanos(40'001'500);
  ack.pacing_rate = net::DataRate::megabits_per_second(40);
  ack.cwnd = 30000;
  ack.bytes_in_flight = 15000;
  ack.packets = 6;
  ack.bytes = 2400;
  ack.flow = 1;
  ack.event = obs::RecoveryEvent::kAck;
  ack.component = 0;
  data.recovery.push_back(ack);
  obs::RecoverySample loss;
  loss.at = sim::Time::from_ns(2'100'000);
  loss.smoothed_rtt = sim::Duration::millis(333);
  loss.pacing_rate = net::DataRate::infinite();
  loss.cwnd = 21000;
  loss.bytes_in_flight = 12000;
  loss.packets = 2;
  loss.bytes = 2400;
  loss.flow = 1;
  loss.event = obs::RecoveryEvent::kLoss;
  loss.component = 0;
  data.recovery.push_back(loss);
  return data;
}

TEST(Exporters, PathQlogMergesRecoverySamplesBytePinned) {
  std::ostringstream out;
  obs::write_path_qlog(out, golden_trace_with_recovery(), "golden");
  EXPECT_EQ(
      out.str(),
      std::string(kGoldenHeader) + kGoldenSpan1 + kGoldenSpan2 +
          "{\"time\":1250.000,\"name\":\"transport:packet_received\","
          "\"data\":{\"component\":\"stack\",\"flow\":1,"
          "\"header\":{\"packet_type\":\"1RTT\"},\"frames\":[{"
          "\"frame_type\":\"ack\",\"largest_acked\":6,"
          "\"acked_bytes\":2400}]}}\n"
          "{\"time\":1250.000,\"name\":\"recovery:metrics_updated\","
          "\"data\":{\"component\":\"stack\",\"flow\":1,"
          "\"congestion_window\":30000,\"bytes_in_flight\":15000,"
          "\"smoothed_rtt\":40001.500,\"pacing_rate\":40000000}}\n" +
          kGoldenSpan3 +
          "{\"time\":2100.000,\"name\":\"recovery:packet_lost\","
          "\"data\":{\"component\":\"stack\",\"flow\":1,\"packets\":2,"
          "\"bytes\":2400}}\n"
          "{\"time\":2100.000,\"name\":\"recovery:metrics_updated\","
          "\"data\":{\"component\":\"stack\",\"flow\":1,"
          "\"congestion_window\":21000,\"bytes_in_flight\":12000,"
          "\"smoothed_rtt\":333000.000}}\n");
}

TEST(Exporters, TraceCsvIsBytePinned) {
  std::ostringstream out;
  obs::write_trace_csv(out, golden_trace());
  EXPECT_EQ(out.str(),
            "flow,packet_number,packet_id,stage,component,time_us,"
            "intended_us,size_bytes\n"
            "1,7,42,transport:pacer_release,stack,1234.567,1230.000,1200\n"
            "1,7,42,kernel:nic_tx,nic,1250.000,1230.000,1200\n"
            "2,8,43,wire:packet_departure,nic,2000.500,,1100\n");
}

// ----------------------------------------------------- traced end-to-end

ExperimentConfig traced_config() {
  ExperimentConfig config;
  config.label = "traced";
  config.stack = StackKind::kQuicheSf;
  config.payload_bytes = 1ll * 1024 * 1024;
  config.repetitions = 1;
  config.seed = 1;
  config.trace = true;
  config.keep_capture = true;
  return config;
}

TEST(TraceEndToEnd, EveryPacedPacketChainsToDeliveryOrDrop) {
  const auto run = Runner::run_once(traced_config(), 1);
  ASSERT_TRUE(run.completed);
  ASSERT_NE(run.trace, nullptr);
  std::int64_t paced = 0;
  std::int64_t dropped = 0;
  for (const auto& [key, p] : reference_packets(*run.trace)) {
    if (!p.has(TraceStage::kPacerRelease)) continue;  // ACK / ctrl
    ++paced;
    const bool complete = p.has(TraceStage::kDelivery);
    const bool was_dropped = p.has(TraceStage::kQdiscDrop);
    if (was_dropped) ++dropped;
    // The acceptance bar: a paced packet either reaches delivery with a
    // complete chain or its trace names the qdisc that dropped it.
    EXPECT_TRUE(complete || was_dropped)
        << "flow " << key.first << " packet " << key.second
        << " vanished mid-path";
  }
  EXPECT_GT(paced, 0);
  EXPECT_EQ(obs::summarize_trace(*run.trace).complete_chains,
            paced - dropped);
  EXPECT_EQ(paced, run.pacer_releases);

  // The streaming digest agrees with the reference on a real span stream
  // too (GSO trains, retransmissions, ACK spans).
  expect_summary_matches_reference(*run.trace);
}

TEST(TraceEndToEnd, WireSpansMatchTheCaptureAndPrecisionAnalyzer) {
  const auto run = Runner::run_once(traced_config(), 1);
  ASSERT_NE(run.trace, nullptr);
  ASSERT_NE(run.capture, nullptr);
  std::map<std::pair<std::uint32_t, std::uint64_t>, sim::Time> wire_at;
  for (const SpanEvent& ev : run.trace->events) {
    if (ev.stage == TraceStage::kWire) {
      wire_at.emplace(std::make_pair(ev.flow, ev.packet_id), ev.at);
    }
  }

  // Every captured wire packet has a kWire span at exactly its tap time.
  for (const net::Packet& pkt : *run.capture) {
    const auto it = wire_at.find({pkt.flow, pkt.id});
    ASSERT_NE(it, wire_at.end()) << "packet " << pkt.id << " untraced";
    EXPECT_EQ(it->second, pkt.wire_time);
  }

  // The wire-stage pacing-error statistics agree with the same offsets
  // computed independently from the capture, the way the paper's precision
  // metric does (metrics::CaptureAnalyzer). The reference below keeps
  // the analyzer's selection but skips packets without a pacer intent —
  // the trace layer reads expected_send_time == 0 as "none", while the
  // analyzer folds those initial-window packets in. Span errors truncate
  // to whole microseconds, hence the 1 us mean tolerance.
  const obs::TraceSummary summary = obs::summarize_trace(*run.trace);
  const obs::StageErrorReport* wire = nullptr;
  for (const auto& report : summary.errors) {
    if (report.stage == TraceStage::kWire) wire = &report;
  }
  ASSERT_NE(wire, nullptr);
  double offset_sum_ms = 0.0;
  std::int64_t intents = 0;
  for (const net::Packet& pkt : *run.capture) {
    if (pkt.kind != net::PacketKind::kQuicData) continue;
    if (pkt.expected_send_time.ns() == 0) continue;
    offset_sum_ms += (pkt.wire_time - pkt.expected_send_time).to_millis();
    ++intents;
  }
  ASSERT_GT(intents, 0);
  EXPECT_EQ(wire->error_us.count(), intents);
  EXPECT_NEAR(wire->mean_us(),
              offset_sum_ms / static_cast<double>(intents) * 1000.0, 1.0);
  // And the run's precision metric folds in the extra no-intent packets.
  EXPECT_GE(run.precision.samples, static_cast<std::size_t>(intents));
}

TEST(TraceEndToEnd, RepeatedRunsExportIdenticalBytes) {
  const auto a = Runner::run_once(traced_config(), 1);
  const auto b = Runner::run_once(traced_config(), 1);
  ASSERT_NE(a.trace, nullptr);
  ASSERT_NE(b.trace, nullptr);
  std::ostringstream qlog_a, qlog_b;
  framework::write_path_qlog(qlog_a, a, "traced");
  framework::write_path_qlog(qlog_b, b, "traced");
  EXPECT_GT(qlog_a.str().size(), 1000u);
  EXPECT_EQ(qlog_a.str(), qlog_b.str());
}

TEST(TraceEndToEnd, UntracedRunsCarryNoTraceAndExportHeadersOnly) {
  auto config = traced_config();
  config.trace = false;
  const auto run = Runner::run_once(config, 1);
  EXPECT_EQ(run.trace, nullptr);
  std::ostringstream qlog, csv;
  framework::write_path_qlog(qlog, run, "untraced");
  framework::write_path_trace_csv(csv, run);
  EXPECT_EQ(qlog.str().find("packet_departure"), std::string::npos);
  EXPECT_EQ(csv.str(),
            "flow,packet_number,packet_id,stage,component,time_us,"
            "intended_us,size_bytes\n");
}

}  // namespace
}  // namespace quicsteps
