// quicsteps — umbrella header.
//
// A discrete-event reproduction of "QUIC Steps: Evaluating Pacing
// Strategies in QUIC Implementations" (CoNEXT 2025): the measurement
// framework, the kernel path (qdiscs, GSO, paced GSO, LaunchTime), the
// three QUIC stack models, the TCP/TLS baseline, and the metrics.
//
// Quickstart:
//
//   #include "core/quicsteps.hpp"
//   using namespace quicsteps;
//
//   framework::ExperimentConfig config;
//   config.label = "quiche+cubic";
//   config.stack = framework::StackKind::kQuiche;
//   config.cca = cc::CcAlgorithm::kCubic;
//   auto runs = framework::Runner::run_all(config);
//   auto agg = framework::aggregate(config.label, runs);
//   std::cout << framework::render_goodput_table({agg}, "baseline");
#pragma once

#include "cc/bbr.hpp"
#include "cc/cc_factory.hpp"
#include "check/audit.hpp"
#include "check/conservation_auditor.hpp"
#include "check/determinism_hasher.hpp"
#include "cc/cubic.hpp"
#include "cc/hystart_pp.hpp"
#include "cc/new_reno.hpp"
#include "framework/aggregate.hpp"
#include "framework/artifacts.hpp"
#include "framework/endpoint.hpp"
#include "framework/experiment.hpp"
#include "framework/flows.hpp"
#include "framework/network.hpp"
#include "framework/parallel.hpp"
#include "framework/report.hpp"
#include "framework/runner.hpp"
#include "framework/topology.hpp"
#include "kernel/gso.hpp"
#include "kernel/nic.hpp"
#include "kernel/os_model.hpp"
#include "kernel/qdisc_etf.hpp"
#include "kernel/qdisc_fifo.hpp"
#include "kernel/qdisc_fq.hpp"
#include "kernel/qdisc_fq_codel.hpp"
#include "kernel/qdisc_netem.hpp"
#include "kernel/qdisc_tbf.hpp"
#include "kernel/udp_socket.hpp"
#include "metrics/capture_analysis.hpp"
#include "metrics/goodput.hpp"
#include "metrics/stats.hpp"
#include "net/data_rate.hpp"
#include "net/flow_table.hpp"
#include "net/packet.hpp"
#include "net/wire_tap.hpp"
#include "obs/exporters.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/path_timeline.hpp"
#include "obs/trace.hpp"
#include "pacing/interval_pacer.hpp"
#include "pacing/leaky_bucket_pacer.hpp"
#include "pacing/pacer.hpp"
#include "quic/app_source.hpp"
#include "quic/client.hpp"
#include "quic/connection.hpp"
#include "quic/qlog.hpp"
#include "quic/server.hpp"
#include "sim/event_loop.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"
#include "stacks/event_loop_model.hpp"
#include "stacks/stack_profile.hpp"
#include "tcp/tcp_client.hpp"
#include "tcp/tcp_connection.hpp"
#include "tcp/tcp_server.hpp"

namespace quicsteps {

/// Library version.
inline constexpr const char* kVersion = "1.0.0";

}  // namespace quicsteps
