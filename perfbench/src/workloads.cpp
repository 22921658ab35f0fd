#include "workloads.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <utility>

#include "check/determinism_hasher.hpp"
#include "framework/experiment.hpp"
#include "net/data_rate.hpp"
#include "sim/time.hpp"

namespace perfbench {

namespace {

namespace qs = quicsteps;
namespace fw = quicsteps::framework;
using qs::cc::CcAlgorithm;
using qs::kernel::GsoMode;
using fw::QdiscKind;
using fw::StackKind;

struct GridConfig {
  const char* label;
  StackKind stack;
  CcAlgorithm cca;
  QdiscKind qdisc;
  GsoMode gso;
};

// The configurations the paper's artifacts are computed from.
constexpr GridConfig kPaperGrid[] = {
    // Table 1: the four stacks over the default qdisc.
    {"quiche", StackKind::kQuiche, CcAlgorithm::kCubic, QdiscKind::kFqCodel,
     GsoMode::kOff},
    {"picoquic", StackKind::kPicoquic, CcAlgorithm::kCubic,
     QdiscKind::kFqCodel, GsoMode::kOff},
    {"ngtcp2", StackKind::kNgtcp2, CcAlgorithm::kCubic, QdiscKind::kFqCodel,
     GsoMode::kOff},
    {"tcp", StackKind::kTcpTls, CcAlgorithm::kCubic, QdiscKind::kFqCodel,
     GsoMode::kOff},
    // Fig. 4: picoquic's rate-based BBR pacing.
    {"picoquic+bbr", StackKind::kPicoquic, CcAlgorithm::kBbr,
     QdiscKind::kFqCodel, GsoMode::kOff},
    // Fig. 5: FQ without and with the SF patch.
    {"quiche+fq", StackKind::kQuiche, CcAlgorithm::kCubic, QdiscKind::kFq,
     GsoMode::kOff},
    {"quiche-sf+fq", StackKind::kQuicheSf, CcAlgorithm::kCubic,
     QdiscKind::kFq, GsoMode::kOff},
    // Fig. 6 and Table 2: stock GSO and paced GSO under FQ.
    {"quiche-sf+fq+gso", StackKind::kQuicheSf, CcAlgorithm::kCubic,
     QdiscKind::kFq, GsoMode::kOn},
    {"quiche-sf+fq+paced-gso", StackKind::kQuicheSf, CcAlgorithm::kCubic,
     QdiscKind::kFq, GsoMode::kPaced},
    // Section 4.4: software ETF and ETF with LaunchTime offload.
    {"quiche-sf+etf", StackKind::kQuicheSf, CcAlgorithm::kCubic,
     QdiscKind::kEtf, GsoMode::kOff},
    {"quiche-sf+etf-lt", StackKind::kQuicheSf, CcAlgorithm::kCubic,
     QdiscKind::kEtfOffload, GsoMode::kOff},
};

// 11 x 10 = 110 runs, so run_ms_p90 has 11 runs above it.
constexpr std::uint64_t kGridSeeds = 10;

void add_sim(Workload& w, const std::string& label, std::uint64_t seed,
             fw::MultiFlowConfig run) {
  run.seed = seed;
  w.labels.push_back(label + "/seed=" + std::to_string(seed));
  w.sims.push_back(std::move(run));
}

void paper_grid(std::uint64_t seed, Workload& w) {
  for (const GridConfig& grid : kPaperGrid) {
    fw::ExperimentConfig config;
    config.label = grid.label;
    config.stack = grid.stack;
    config.cca = grid.cca;
    config.topology.server_qdisc = grid.qdisc;
    config.gso = grid.gso;
    config.payload_bytes = 10ll * 1024 * 1024;
    for (std::uint64_t k = 0; k < kGridSeeds; ++k) {
      fw::MultiFlowConfig run;
      run.flows.push_back(fw::FlowSpec{.config = config});
      add_sim(w, grid.label, seed * kGridSeeds + k, std::move(run));
    }
  }
}

// bench_ext_highbw's 10 Gbit/s topology with the ideal server: quiche-sf
// does not reach multi-Gbit rates there (README.md has the numbers).
void hotpath_10g(std::uint64_t seed, Workload& w) {
  const auto rate = qs::net::DataRate::gigabits_per_second(10);
  fw::ExperimentConfig config;
  config.label = "ideal-10g";
  config.stack = StackKind::kIdealQuic;
  config.payload_bytes = 512ll * 1024 * 1024;
  config.topology.bottleneck_rate = rate;
  config.topology.server_nic_rate = qs::net::DataRate::gigabits_per_second(40);
  config.topology.path_delay_one_way = qs::sim::Duration::millis(1);
  config.topology.bottleneck_buffer_bytes =
      rate.bytes_in(qs::sim::Duration::millis(2));
  config.topology.tbf_burst_bytes = 16 * 1514;
  config.topology.client_gro_window = qs::sim::Duration::micros(16);
  fw::MultiFlowConfig run;
  run.flows.push_back(fw::FlowSpec{.config = config});
  add_sim(w, config.label, seed, std::move(run));
}

// The CLI's fleet mode at 10k flows: the bottleneck is scaled to a 2 Mbit/s
// fair share, half what the flows would take (2:1 oversubscribed), so drop
// attribution and loss recovery do real work.
void fabric_10k(std::uint64_t seed, Workload& w) {
  constexpr std::int64_t kFlows = 10000;
  fw::ExperimentConfig flow;
  flow.label = "ideal-fleet-10k";
  flow.stack = StackKind::kIdealQuic;
  flow.payload_bytes = 64 * 1024;
  flow.topology.bottleneck_rate =
      qs::net::DataRate::bits_per_second(2'000'000 * kFlows);
  flow.topology.bottleneck_buffer_bytes =
      flow.topology.bottleneck_rate.bytes_in(qs::sim::Duration::millis(40));
  flow.trace = true;  // spans for the sampled flows only
  fw::MultiFlowConfig run;
  run.lite_metrics = true;
  run.trace_sample = 100;
  run.telemetry_window = qs::sim::Duration::millis(10);
  run.flows.assign(kFlows, fw::FlowSpec{.config = flow});
  add_sim(w, flow.label, seed, std::move(run));
  w.fleet = true;
}

std::int64_t lookup(const std::map<std::string, std::int64_t>& values,
                    const std::string& name) {
  const auto it = values.find(name);
  return it == values.end() ? 0 : it->second;
}

/// Every SimCounts field by name, in a fixed order.
std::vector<std::pair<std::string, std::int64_t>> named_counts(
    const SimCounts& c) {
  std::vector<std::pair<std::string, std::int64_t>> out;
  for (std::size_t k = 0; k < c.executed.size(); ++k) {
    out.emplace_back(std::string("executed/") +
                         qs::sim::to_string(static_cast<qs::sim::EventClass>(k)),
                     c.executed[k]);
  }
  out.emplace_back("scheduled", c.scheduled);
  out.emplace_back("cancelled", c.cancelled);
  out.emplace_back("overflow", c.overflow);
  out.emplace_back("drain_executed", c.drain_executed);
  out.emplace_back("drain_batched", c.drain_batched);
  out.emplace_back("max_pending", c.max_pending);
  out.emplace_back("wire_pkts", c.wire_pkts);
  out.emplace_back("bottleneck_in", c.bottleneck_in);
  out.emplace_back("bottleneck_drops", c.bottleneck_drops);
  out.emplace_back("packets_sent", c.packets_sent);
  out.emplace_back("syscall_pkts", c.syscall_pkts);
  out.emplace_back("send_syscalls", c.send_syscalls);
  out.emplace_back("retransmissions", c.retransmissions);
  out.emplace_back("pacer_releases", c.pacer_releases);
  out.emplace_back("pacer_deferrals", c.pacer_deferrals);
  out.emplace_back("cc_rollbacks", c.cc_rollbacks);
  out.emplace_back("flows", c.flows);
  out.emplace_back("completed", c.completed);
  out.emplace_back("wire", static_cast<std::int64_t>(c.wire));
  return out;
}

}  // namespace

bool make_workload(const std::string& name, std::uint64_t seed,
                   Workload& out) {
  out = Workload{};
  out.name = name;
  if (name == "paper_grid") {
    paper_grid(seed, out);
  } else if (name == "hotpath_10g") {
    hotpath_10g(seed, out);
  } else if (name == "fabric_10k") {
    fabric_10k(seed, out);
  } else {
    return false;
  }
  return true;
}

SimCounts count_sim(const fw::MultiFlowResult& result) {
  SimCounts c;
  const auto& counters = result.metrics.counters();
  const auto& gauges = result.metrics.gauges();
  for (std::size_t k = 0; k < qs::sim::kEventClassCount; ++k) {
    const std::string cls =
        qs::sim::to_string(static_cast<qs::sim::EventClass>(k));
    c.executed[k] = lookup(counters, "loop/executed/" + cls);
    c.scheduled += lookup(counters, "loop/scheduled/" + cls);
  }
  c.cancelled = lookup(counters, "loop/cancelled");
  c.overflow = lookup(counters, "loop/overflow_scheduled");
  c.drain_executed = lookup(counters, "loop/drain_executed");
  c.drain_batched = lookup(counters, "loop/drain_batched");
  c.max_pending = lookup(gauges, "loop/max_pending");
  c.bottleneck_in = lookup(gauges, "bottleneck/tbf/packets_in");
  c.bottleneck_drops = result.bottleneck_drops;
  qs::check::DeterminismHasher digest;
  for (const fw::RunResult& flow : result.flows) {
    c.wire_pkts += flow.wire_data_packets;
    c.packets_sent += flow.packets_sent;
    if (flow.send_syscalls > 0) {
      c.syscall_pkts += flow.packets_sent;
      c.send_syscalls += flow.send_syscalls;
    }
    c.retransmissions += flow.retransmissions;
    c.pacer_releases += flow.pacer_releases;
    c.pacer_deferrals += flow.pacer_deferrals;
    c.cc_rollbacks += flow.cc_rollbacks;
    c.completed += flow.completed ? 1 : 0;
    digest.add_u64(flow.wire_hash);
  }
  c.flows = static_cast<std::int64_t>(result.flows.size());
  c.wire = result.flows.size() == 1 ? result.flows.front().wire_hash
                                    : digest.digest();
  return c;
}

void accumulate(SimCounts& total, const SimCounts& c) {
  for (std::size_t k = 0; k < c.executed.size(); ++k) {
    total.executed[k] += c.executed[k];
  }
  total.scheduled += c.scheduled;
  total.cancelled += c.cancelled;
  total.overflow += c.overflow;
  total.drain_executed += c.drain_executed;
  total.drain_batched += c.drain_batched;
  total.max_pending = std::max(total.max_pending, c.max_pending);
  total.wire_pkts += c.wire_pkts;
  total.bottleneck_in += c.bottleneck_in;
  total.bottleneck_drops += c.bottleneck_drops;
  total.packets_sent += c.packets_sent;
  total.syscall_pkts += c.syscall_pkts;
  total.send_syscalls += c.send_syscalls;
  total.retransmissions += c.retransmissions;
  total.pacer_releases += c.pacer_releases;
  total.pacer_deferrals += c.pacer_deferrals;
  total.cc_rollbacks += c.cc_rollbacks;
  total.flows += c.flows;
  total.completed += c.completed;
}

std::string count_diff(const SimCounts& a, const SimCounts& b) {
  const auto x = named_counts(a);
  const auto y = named_counts(b);
  std::string diff;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x[i].second == y[i].second) continue;
    if (!diff.empty()) diff += ", ";
    diff += x[i].first + " " + std::to_string(x[i].second) + " -> " +
            std::to_string(y[i].second);
  }
  return diff;
}

std::string fingerprint(const SimCounts& c) {
  char buf[128];
  std::snprintf(buf, sizeof buf,
                "wire=%016" PRIx64 " drops=%" PRId64 " completed=%" PRId64
                "/%" PRId64,
                c.wire, c.bottleneck_drops, c.completed, c.flows);
  return buf;
}

}  // namespace perfbench
