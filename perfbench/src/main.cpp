// perfbench — the quicsteps simulator's end-to-end and per-layer benchmark.
//
//   perfbench --workload paper_grid|hotpath_10g|fabric_10k --seed N
//             --seconds S --trace 0|1 --goldens FILE [--print-goldens]
//
// --trace 0 times framework::Network construction on its own, then runs the
// workload untraced, back to back, for S seconds (at least three times) and
// prints the end-to-end metrics. --trace 1 alternates one untraced and one
// traced run of the workload for S seconds and prints the per-layer metrics:
// counts from the untraced results, times from the fastest traced run
// (traced_run.hpp).
//
// Run times are best-of-N over repeats rotated across the CPUs; set-up time
// is a median. Shared hosts switch between speeds about 1.7x apart for
// seconds to minutes at a time, per CPU, so a median over repeats lands in
// either mode and flips between runs; the fastest repeat is the least
// disturbed measurement of identical work.
//
// Every simulation is checked. On the pinned seed its fingerprint must match
// FILE; on every seed each flow must complete, every count must repeat
// exactly between runs of the seed, and the traced pass must reproduce each
// flow's wire_hash. The report ends with one JSON line; the exit code is 1
// when a check failed and 2 on a usage error. --print-goldens prints the
// golden lines of one untraced run instead.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <numeric>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "framework/flows.hpp"
#include "framework/network.hpp"
#include "obs/health_report.hpp"
#include "sim/event_loop.hpp"
#include "sim/random.hpp"
#include "traced_run.hpp"
#include "workloads.hpp"

namespace {

namespace qs = quicsteps;
namespace fw = quicsteps::framework;
using perfbench::Ledger;
using perfbench::SimCounts;
using perfbench::Workload;
using Clock = std::chrono::steady_clock;

// Set-up is timed on its own, before the measured runs: at least kSetupMin
// constructions of the workload's networks, then more until kSetupSeconds
// have passed, at most kSetupMax.
constexpr std::size_t kSetupMin = 7;
constexpr std::size_t kSetupMax = 400;
constexpr double kSetupSeconds = 0.5;
// The fewest untraced runs a best-of is taken over.
constexpr std::size_t kMinRuns = 3;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile `p` in (0, 1], and how many samples lie above.
double percentile(std::vector<double> v, double p, std::size_t* above) {
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  const double value = v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
  *above = static_cast<std::size_t>(
      v.end() - std::upper_bound(v.begin(), v.end(), value));
  return value;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// "num / den" for a ratio's base line.
std::string base(double num, double den) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%.17g / %.17g", num, den);
  return buf;
}

/// Moves the calling thread to the next CPU it may run on, round robin. On a
/// shared host a neighbour can load one core for a whole run; rotating the
/// repeats over every CPU lets the best-of find an undisturbed one. Where
/// the thread runs never changes a simulated result.
class CpuRotation {
 public:
  CpuRotation() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus_.push_back(cpu);
    }
  }

  void next() {
    if (cpus_.size() < 2) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus_[next_++ % cpus_.size()], &set);
    // Best effort: a refused move only loses the rotation.
    sched_setaffinity(0, sizeof set, &set);
  }

 private:
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss: KiB
}

struct Options {
  std::string workload;
  std::uint64_t seed = perfbench::kGoldenSeed;
  std::uint64_t seconds = 10;
  std::uint64_t trace = 0;
  std::string goldens;
  bool print_goldens = false;
};

[[noreturn]] void usage(const std::string& message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "paper_grid|hotpath_10g|fabric_10k --seed N --seconds S "
               "--trace 0|1 --goldens FILE [--print-goldens]\n",
               message.c_str());
  std::exit(2);
}

std::uint64_t parse_uint(const std::string& flag, const std::string& value) {
  // At most 19 digits, so the value always fits in 64 bits.
  if (value.empty() || value.size() > 19 ||
      value.find_first_not_of("0123456789") != std::string::npos) {
    usage(flag + " needs a non-negative integer, got '" + value + "'");
  }
  return std::stoull(value);
}

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--print-goldens") {
      o.print_goldens = true;
      continue;
    }
    if (i + 1 >= argc) usage(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = parse_uint(flag, value);
    } else if (flag == "--seconds") {
      o.seconds = parse_uint(flag, value);
    } else if (flag == "--trace") {
      o.trace = parse_uint(flag, value);
    } else if (flag == "--goldens") {
      o.goldens = value;
    } else {
      usage("unknown flag '" + flag + "'");
    }
  }
  if (o.seconds < 1) usage("--seconds must be at least 1");
  if (o.trace > 1) usage("--trace takes 0 or 1");
  if (o.goldens.empty()) usage("--goldens FILE is required");
  return o;
}

/// Pinned fingerprints of one workload: label -> "wire=... drops=...".
using Goldens = std::map<std::string, std::string>;

/// Reads the "<workload> <label> <fingerprint>" lines of `workload`.
bool load_goldens(const std::string& path, const std::string& workload,
                  Goldens& out) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name, label, value;
    fields >> name >> label;
    std::getline(fields >> std::ws, value);
    if (name == workload) out[label] = value;
  }
  return true;
}

/// The run's checks and metrics. A failed check is counted against the
/// flows it covers and printed when it happens; metrics print as a table
/// with their bases, then again in the closing JSON line.
class Report {
 public:
  void attempt(std::int64_t flows) { attempted_ += flows; }

  void fail(std::int64_t flows, const std::string& what) {
    failed_ += flows;
    if (++failures_ <= kMaxPrinted) {
      std::printf("CHECK FAILED: %s\n", what.c_str());
    }
  }

  void metric(const std::string& name, double value, const std::string& unit,
              const std::string& note = "") {
    metrics_.push_back({name, value, unit, note});
  }

  /// Prints everything; returns the process exit code.
  int finish() const {
    if (failures_ > kMaxPrinted) {
      std::printf("... and %d more failed checks\n", failures_ - kMaxPrinted);
    }
    std::printf("%-28s %16.6g %-10s (%" PRId64 " / %" PRId64 " flows)\n",
                "failed_share",
                ratio(static_cast<double>(failed_),
                      static_cast<double>(attempted_)),
                "share", failed_, attempted_);
    for (const Metric& m : metrics_) {
      std::printf("%-28s %16.6g %-10s %s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.note.c_str());
    }
    const bool correct = failures_ == 0 && attempted_ > 0;
    std::printf("{\"correct\": %s, \"attempted\": %" PRId64
                ", \"failed\": %" PRId64 ", \"metrics\": {",
                correct ? "true" : "false", attempted_, failed_);
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                  metrics_[i].value, metrics_[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
    return correct ? 0 : 1;
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    std::string note;
  };
  static constexpr int kMaxPrinted = 20;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  int failures_ = 0;
  std::vector<Metric> metrics_;
};

/// One untraced simulation, as the checks and metrics see it.
struct SimOutcome {
  SimCounts counts;
  std::vector<std::uint64_t> hashes;  // per flow, in flows[] order
  std::vector<bool> completed;
  std::string health_json;  // fleet workloads only
  double seconds = 0.0;     // run_flows, plus fleet_health for a fleet
};

SimOutcome run_untraced(const Workload& w, std::size_t s) {
  const fw::MultiFlowConfig& config = w.sims[s];
  SimOutcome out;
  const Clock::time_point t0 = Clock::now();
  const fw::MultiFlowResult result = fw::run_flows(config);
  qs::obs::HealthReport health;
  if (w.fleet) health = fw::fleet_health(config, result);
  out.seconds = since(t0);
  out.counts = perfbench::count_sim(result);
  for (const fw::RunResult& flow : result.flows) {
    out.hashes.push_back(flow.wire_hash);
    out.completed.push_back(flow.completed);
  }
  if (w.fleet) out.health_json = health.to_json();
  return out;
}

struct WorkloadRun {
  std::vector<SimOutcome> sims;
  double seconds = 0.0;  // summed over the simulations
};

WorkloadRun run_workload(const Workload& w) {
  WorkloadRun run;
  for (std::size_t s = 0; s < w.sims.size(); ++s) {
    run.sims.push_back(run_untraced(w, s));
    run.seconds += run.sims.back().seconds;
  }
  return run;
}

SimCounts total_counts(const WorkloadRun& run) {
  SimCounts total;
  for (const SimOutcome& sim : run.sims) perfbench::accumulate(total, sim.counts);
  return total;
}

/// Checks an untraced run: every flow completes, the pinned seed matches
/// its goldens (`goldens` non-null), and a repeat matches `first` exactly.
void check_run(const Workload& w, const WorkloadRun& run,
               const WorkloadRun* first, const Goldens* goldens,
               Report& report) {
  for (std::size_t s = 0; s < w.sims.size(); ++s) {
    const SimCounts& c = run.sims[s].counts;
    report.attempt(c.flows);
    std::int64_t failed = c.flows - c.completed;
    std::string why;
    if (failed > 0) why = std::to_string(failed) + " flows incomplete";
    if (goldens != nullptr) {
      const auto it = goldens->find(w.labels[s]);
      const std::string got = perfbench::fingerprint(c);
      if (it == goldens->end() || it->second != got) {
        failed = c.flows;
        why += (why.empty() ? "" : "; ") + std::string("got '") + got +
               "', pinned '" +
               (it == goldens->end() ? std::string("nothing") : it->second) +
               "'";
      }
    }
    if (first != nullptr) {
      const std::string diff =
          perfbench::count_diff(first->sims[s].counts, c);
      if (!diff.empty()) {
        failed = c.flows;
        why += (why.empty() ? "" : "; ") +
               std::string("counts changed between runs of one seed: ") + diff;
      }
    }
    if (failed > 0) report.fail(failed, w.name + " " + w.labels[s] + ": " + why);
  }
}

/// Checks a traced run against the untraced run of the same simulation:
/// every flow's wire_hash and completion, the events run per class, and the
/// fleet health report.
void check_traced(const Workload& w, std::size_t s, const SimOutcome& untraced,
                  const perfbench::TracedRun& traced, Report& report) {
  const std::vector<fw::RunResult>& flows = traced.result.flows;
  report.attempt(static_cast<std::int64_t>(untraced.hashes.size()));
  std::int64_t failed = 0;
  std::string why;
  if (flows.size() != untraced.hashes.size()) {
    failed = static_cast<std::int64_t>(untraced.hashes.size());
    why = "traced pass ran " + std::to_string(flows.size()) + " flows";
  } else {
    for (std::size_t i = 0; i < flows.size(); ++i) {
      if (flows[i].wire_hash != untraced.hashes[i] ||
          flows[i].completed != untraced.completed[i]) {
        ++failed;
      }
    }
    if (failed > 0) {
      why = std::to_string(failed) +
            " flows' wire_hash or completion differ from the untraced run";
    }
  }
  for (std::size_t k = 0; k < qs::sim::kEventClassCount; ++k) {
    if (traced.ledger.class_events[k] == untraced.counts.executed[k]) continue;
    failed = static_cast<std::int64_t>(untraced.hashes.size());
    why += (why.empty() ? "" : "; ") + std::string("executed ") +
           qs::sim::to_string(static_cast<qs::sim::EventClass>(k)) +
           " events " + std::to_string(untraced.counts.executed[k]) + " -> " +
           std::to_string(traced.ledger.class_events[k]);
  }
  if (w.fleet && traced.health_json != untraced.health_json) {
    failed = static_cast<std::int64_t>(untraced.hashes.size());
    why += (why.empty() ? "" : "; ") +
           std::string("fleet_health differs from the untraced run");
  }
  if (failed > 0) {
    report.fail(failed, w.name + " " + w.labels[s] + " traced: " + why);
  }
}

/// Wall seconds to construct every framework::Network of the workload;
/// the loop before and the teardown after are not timed.
double time_setup(const Workload& w) {
  double total = 0.0;
  for (const fw::MultiFlowConfig& config : w.sims) {
    qs::sim::EventLoop loop;
    qs::sim::Rng rng(config.seed);
    std::vector<fw::RunResult> live(config.flows.size());
    const Clock::time_point t0 = Clock::now();
    const fw::Network net(loop, config, rng, live);
    total += since(t0);
  }
  return total;
}

int run_end_to_end(const Options& o, const Workload& w, const Goldens* goldens) {
  Report report;
  std::vector<double> setup;
  const Clock::time_point s0 = Clock::now();
  while (setup.size() < kSetupMin ||
         (setup.size() < kSetupMax && since(s0) < kSetupSeconds)) {
    setup.push_back(time_setup(w));
  }

  WorkloadRun first;
  std::vector<double> walls;
  // Each simulation's best time over the runs. A whole grid run seldom
  // fits between two host slowdowns; each of its 110 simulations does.
  std::vector<double> sim_ms(w.sims.size(), HUGE_VAL);
  CpuRotation cpus;
  const Clock::time_point t0 = Clock::now();
  while (walls.size() < kMinRuns || since(t0) < static_cast<double>(o.seconds)) {
    cpus.next();
    WorkloadRun run = run_workload(w);
    const bool is_first = walls.empty();
    check_run(w, run, is_first ? nullptr : &first, is_first ? goldens : nullptr,
              report);
    walls.push_back(run.seconds);
    for (std::size_t s = 0; s < run.sims.size(); ++s) {
      sim_ms[s] = std::min(sim_ms[s], run.sims[s].seconds * 1e3);
    }
    if (is_first) first = std::move(run);
  }

  std::printf("run walls (s):");
  for (double s : walls) std::printf(" %.4f", s);
  std::printf("\n");
  const SimCounts total = total_counts(first);
  const double wall = std::accumulate(sim_ms.begin(), sim_ms.end(), 0.0) / 1e3;
  const double pkts = static_cast<double>(total.wire_pkts);
  std::size_t above = 0;
  const double p90 = percentile(sim_ms, 0.9, &above);
  const std::string best = "best of " + std::to_string(walls.size()) + " runs";
  report.metric("wall_s", wall, "s",
                "(sum over the simulations of each one's " + best + ")");
  report.metric("sim_pkts_per_s", ratio(pkts, wall), "1/s",
                "(" + base(pkts, wall) + " wire data packets / s)");
  report.metric("setup_s", median(setup), "s",
                "(median of " + std::to_string(setup.size()) +
                    " constructions of " + std::to_string(w.sims.size()) +
                    " networks)");
  report.metric("peak_rss_mib", peak_rss_mib(), "MiB", "(process peak)");
  report.metric("run_ms_p50", median(sim_ms), "ms",
                "(n=" + std::to_string(sim_ms.size()) + " simulations, each " +
                    best + ")");
  report.metric("run_ms_p90", p90, "ms",
                "(n=" + std::to_string(sim_ms.size()) + ", " +
                    std::to_string(above) + " above)");
  return report.finish();
}

int run_per_layer(const Options& o, const Workload& w, const Goldens* goldens) {
  Report report;
  WorkloadRun first;
  std::vector<Ledger> ledgers;
  std::vector<double> untraced_walls;
  std::vector<double> overheads;
  const Clock::time_point t0 = Clock::now();
  CpuRotation cpus;
  while (ledgers.empty() || since(t0) < static_cast<double>(o.seconds)) {
    cpus.next();  // both halves of a pair run on the same CPU
    WorkloadRun run = run_workload(w);
    const bool is_first = ledgers.empty();
    check_run(w, run, is_first ? nullptr : &first, is_first ? goldens : nullptr,
              report);
    Ledger ledger;
    for (std::size_t s = 0; s < w.sims.size(); ++s) {
      const perfbench::TracedRun traced = perfbench::traced_run(w.sims[s]);
      check_traced(w, s, run.sims[s], traced, report);
      ledger += traced.ledger;
    }
    untraced_walls.push_back(run.seconds);
    overheads.push_back(ratio(ledger.wall_s, run.seconds));
    ledgers.push_back(ledger);
    if (is_first) first = std::move(run);
  }

  // Times: the fastest traced run, whole, so its spans stay consistent with
  // each other. Counts: the first untraced run (check_run has compared every
  // later run with it).
  const Ledger& b = *std::min_element(
      ledgers.begin(), ledgers.end(),
      [](const Ledger& x, const Ledger& y) { return x.wall_s < y.wall_s; });
  const std::string traced_note =
      "(fastest of " + std::to_string(ledgers.size()) + " traced runs)";
  const SimCounts c = total_counts(first);
  const auto d = [](std::int64_t v) { return static_cast<double>(v); };

  double events = 0.0;
  for (std::int64_t e : c.executed) events += d(e);
  report.metric("sim.events", events, "count", "(executed, all classes)");
  report.metric("sim.wire_pkts", d(c.wire_pkts), "count",
                "(wire data packets)");
  report.metric("sim.events_per_pkt", ratio(events, d(c.wire_pkts)),
                "events/pkt", "(" + base(events, d(c.wire_pkts)) + ")");
  report.metric("sim.scheduled", d(c.scheduled), "count");
  report.metric("sim.overflow", d(c.overflow), "count",
                "(records that took the overflow heap)");
  report.metric("sim.overflow_share", ratio(d(c.overflow), d(c.scheduled)),
                "share", "(" + base(d(c.overflow), d(c.scheduled)) + ")");
  report.metric("sim.cancelled", d(c.cancelled), "count");
  report.metric("sim.cancelled_share", ratio(d(c.cancelled), d(c.scheduled)),
                "share", "(" + base(d(c.cancelled), d(c.scheduled)) + ")");
  report.metric("sim.drain_executed", d(c.drain_executed), "count");
  report.metric("sim.drain_batched", d(c.drain_batched), "count");
  report.metric("sim.drain_batched_share",
                ratio(d(c.drain_batched), d(c.drain_executed)), "share",
                "(" + base(d(c.drain_batched), d(c.drain_executed)) + ")");
  report.metric("sim.max_pending", d(c.max_pending), "count",
                "(largest over the simulations)");
  report.metric("sim.loop_s", b.loop_s(), "s", traced_note);
  for (std::size_t k = 0; k < qs::sim::kEventClassCount; ++k) {
    const auto cls = static_cast<qs::sim::EventClass>(k);
    const std::string prefix = std::string("sim.") + qs::sim::to_string(cls) + ".";
    report.metric(prefix + "events", d(c.executed[k]), "count");
    // Every workload is a bulk transfer, so no app-source event ever runs:
    // its time would read 0 on every run.
    if (cls == qs::sim::EventClass::kApp) continue;
    const double self = b.class_s[k];
    const double traced_events = d(b.class_events[k]);
    report.metric(prefix + "self_s", self, "s", traced_note);
    report.metric(prefix + "ns_per_event", ratio(self * 1e9, traced_events),
                  "ns/event", "(" + base(self * 1e9, traced_events) + ")");
  }

  const auto span = [&b](Ledger::Span sp) { return b.span_s[sp]; };
  const double tap_s = span(Ledger::kTap);
  const double tap_pkts = d(b.tap_pkts);
  report.metric("metrics.tap_s", tap_s, "s", traced_note);
  report.metric("metrics.tap_pkts", tap_pkts, "count");
  report.metric("metrics.ns_per_pkt", ratio(tap_s * 1e9, tap_pkts), "ns/pkt",
                "(" + base(tap_s * 1e9, tap_pkts) + ")");
  report.metric("metrics.finish_s", span(Ledger::kFinish), "s", traced_note);
  report.metric("framework.setup_s", span(Ledger::kSetup), "s", traced_note);
  report.metric("framework.start_s", span(Ledger::kStart), "s", traced_note);
  report.metric("framework.extract_s", span(Ledger::kExtract), "s",
                traced_note);
  report.metric("framework.teardown_s", span(Ledger::kTeardown), "s",
                traced_note);
  report.metric("obs.telemetry_s", span(Ledger::kTelemetry), "s", traced_note);
  report.metric("obs.health_s", span(Ledger::kHealth), "s", traced_note);

  report.metric("kernel.bottleneck_in", d(c.bottleneck_in), "count");
  report.metric("kernel.bottleneck_drops", d(c.bottleneck_drops), "count");
  report.metric("kernel.bottleneck_drop_share",
                ratio(d(c.bottleneck_drops), d(c.bottleneck_in)), "share",
                "(" + base(d(c.bottleneck_drops), d(c.bottleneck_in)) + ")");
  report.metric("kernel.send_syscalls", d(c.send_syscalls), "count");
  report.metric("kernel.pkts_per_syscall",
                ratio(d(c.syscall_pkts), d(c.send_syscalls)), "pkts/syscall",
                "(" + base(d(c.syscall_pkts), d(c.send_syscalls)) +
                    ", flows that make syscalls)");
  report.metric("quic.packets_sent", d(c.packets_sent), "count");
  report.metric("quic.retransmissions", d(c.retransmissions), "count");
  report.metric("quic.retx_share",
                ratio(d(c.retransmissions), d(c.packets_sent)), "share",
                "(" + base(d(c.retransmissions), d(c.packets_sent)) + ")");
  report.metric("pacing.releases", d(c.pacer_releases), "count");
  report.metric("pacing.deferrals", d(c.pacer_deferrals), "count");
  report.metric("pacing.deferral_share",
                ratio(d(c.pacer_deferrals), d(c.pacer_releases)), "share",
                "(" + base(d(c.pacer_deferrals), d(c.pacer_releases)) + ")");
  report.metric("cc.rollbacks", d(c.cc_rollbacks), "count");

  report.metric("trace.overhead", median(overheads), "x",
                "(traced wall / untraced wall, median of " +
                    std::to_string(overheads.size()) + " back-to-back pairs; "
                    "fastest " +
                    base(b.wall_s, *std::min_element(untraced_walls.begin(),
                                                     untraced_walls.end())) +
                    ")");
  report.metric("trace.covered_share", ratio(b.covered_s(), b.wall_s), "share",
                "(time in spans / traced wall, fastest traced run: " +
                    base(b.covered_s(), b.wall_s) + ")");
  return report.finish();
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse_options(argc, argv);
  Workload w;
  if (!perfbench::make_workload(o.workload, o.seed, w)) {
    usage("unknown workload '" + o.workload + "'");
  }
  if (o.print_goldens) {
    const WorkloadRun run = run_workload(w);
    for (std::size_t s = 0; s < w.sims.size(); ++s) {
      std::printf("%s %s %s\n", w.name.c_str(), w.labels[s].c_str(),
                  perfbench::fingerprint(run.sims[s].counts).c_str());
    }
    return 0;
  }
  Goldens goldens;
  const bool pinned = o.seed == perfbench::kGoldenSeed;
  if (pinned && !load_goldens(o.goldens, w.name, goldens)) {
    std::fprintf(stderr, "perfbench: cannot read %s\n", o.goldens.c_str());
    return 2;
  }
  std::printf("perfbench %s, seed %" PRIu64 ", %zu simulations, %s for %" PRIu64
              " s%s\n",
              w.name.c_str(), o.seed, w.sims.size(),
              o.trace == 0 ? "end-to-end" : "per-layer", o.seconds,
              pinned ? ", outputs checked against goldens" : "");
  return o.trace == 0 ? run_end_to_end(o, w, pinned ? &goldens : nullptr)
                      : run_per_layer(o, w, pinned ? &goldens : nullptr);
}
