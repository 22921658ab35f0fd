#include "framework/report.hpp"

#include <algorithm>
#include <cstdio>

namespace quicsteps::framework {

namespace {

std::string heading(const std::string& title) {
  std::string out = "\n== " + title + " ==\n";
  return out;
}

}  // namespace

std::string render_goodput_table(const std::vector<Aggregate>& rows,
                                 const std::string& title) {
  std::string out = heading(title);
  char line[160];
  std::snprintf(line, sizeof(line), "%-14s %20s %20s %8s\n", "Configuration",
                "Dropped packets", "Goodput [Mbit/s]", "runs");
  out += line;
  out += std::string(66, '-') + "\n";
  for (const auto& row : rows) {
    std::snprintf(line, sizeof(line), "%-14s %20s %20s %4d/%-3d\n",
                  row.label.c_str(),
                  row.dropped_packets.to_string(2).c_str(),
                  row.goodput_mbps.to_string(2).c_str(), row.completed,
                  row.repetitions);
    out += line;
  }
  return out;
}

std::string render_gap_figure(const std::vector<Aggregate>& rows,
                              const std::string& title, sim::Duration x_max) {
  std::string out = heading(title);
  std::vector<metrics::Cdf> cdfs;
  cdfs.reserve(rows.size());
  for (const auto& row : rows) cdfs.push_back(row.gap_cdf());
  std::vector<std::pair<std::string, const metrics::Cdf*>> series;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    series.emplace_back(rows[i].label, &cdfs[i]);
  }
  out += metrics::render_ascii_cdf(series, 0.0, x_max.to_millis(), 72, 16,
                                   "inter-packet gap [ms]");
  char line[160];
  std::snprintf(line, sizeof(line), "%-14s %16s %16s %12s\n", "Configuration",
                "back-to-back", "gap < 1.5 ms", "samples");
  out += line;
  for (const auto& row : rows) {
    std::snprintf(line, sizeof(line), "%-14s %13.1f %%  %13.1f %% %12zu\n",
                  row.label.c_str(),
                  100.0 * row.back_to_back_fraction.mean,
                  100.0 * row.below_1500us_fraction.mean,
                  row.pooled_gaps_ms.size());
    out += line;
  }
  return out;
}

std::string render_train_figure(const std::vector<Aggregate>& rows,
                                const std::string& title) {
  std::string out = heading(title);
  char line[256];

  // Bucketed share of packets per train length, like the paper's bars.
  static const std::pair<std::size_t, std::size_t> kBuckets[] = {
      {1, 1}, {2, 2}, {3, 5}, {6, 10}, {11, 15}, {16, 20}, {21, 1u << 20}};
  std::snprintf(line, sizeof(line),
                "%-14s %6s %6s %6s %6s %6s %6s %6s | %9s %6s\n", "Config",
                "1", "2", "3-5", "6-10", "11-15", "16-20", ">20", "<=5 pkts",
                "max");
  out += line;
  out += std::string(96, '-') + "\n";
  for (const auto& row : rows) {
    double share[7] = {0};
    for (const auto& [len, packets] : row.pooled_packets_by_length) {
      for (int b = 0; b < 7; ++b) {
        if (len >= kBuckets[b].first && len <= kBuckets[b].second) {
          share[b] += static_cast<double>(packets);
          break;
        }
      }
    }
    const double total = std::max<double>(
        1.0, static_cast<double>(row.pooled_total_packets));
    std::size_t max_len = 0;
    if (!row.pooled_packets_by_length.empty()) {
      max_len = row.pooled_packets_by_length.rbegin()->first;
    }
    std::snprintf(
        line, sizeof(line),
        "%-14s %5.1f%% %5.1f%% %5.1f%% %5.1f%% %5.1f%% %5.1f%% %5.1f%% | "
        "%8.2f%% %6zu\n",
        row.label.c_str(), 100 * share[0] / total, 100 * share[1] / total,
        100 * share[2] / total, 100 * share[3] / total, 100 * share[4] / total,
        100 * share[5] / total, 100 * share[6] / total,
        100 * row.fraction_in_trains_up_to(5), max_len);
    out += line;
  }
  return out;
}

std::string render_precision_table(const std::vector<Aggregate>& rows,
                                   const std::string& title) {
  std::string out = heading(title);
  char line[160];
  std::snprintf(line, sizeof(line), "%-18s %24s\n", "Configuration",
                "Precision (stddev) [ms]");
  out += line;
  out += std::string(44, '-') + "\n";
  for (const auto& row : rows) {
    std::snprintf(line, sizeof(line), "%-18s %24s\n", row.label.c_str(),
                  row.precision_ms.to_string(3).c_str());
    out += line;
  }
  return out;
}

std::string render_cwnd_trace(const RunResult& run, const std::string& title,
                              int width, int height) {
  std::string out = heading(title);
  if (run.trace == nullptr || run.trace->recovery.empty()) {
    out += "(no trace recorded)\n";
    return out;
  }
  const std::vector<obs::RecoverySample>& samples = run.trace->recovery;
  const auto t0 = samples.front().at;
  const auto t1 = samples.back().at;
  std::int64_t max_cwnd = 1;
  for (const auto& p : samples) max_cwnd = std::max(max_cwnd, p.cwnd);

  std::vector<std::string> grid(
      static_cast<std::size_t>(height),
      std::string(static_cast<std::size_t>(width), ' '));
  for (const auto& p : samples) {
    const double xf = (t1 - t0).ns() > 0
                          ? static_cast<double>((p.at - t0).ns()) /
                                static_cast<double>((t1 - t0).ns())
                          : 0.0;
    int col = static_cast<int>(xf * (width - 1) + 0.5);
    int row = static_cast<int>(
        (1.0 - static_cast<double>(p.cwnd) / static_cast<double>(max_cwnd)) *
            (height - 1) +
        0.5);
    col = std::clamp(col, 0, width - 1);
    row = std::clamp(row, 0, height - 1);
    grid[static_cast<std::size_t>(row)][static_cast<std::size_t>(col)] = '*';
  }
  char label[64];
  std::snprintf(label, sizeof(label), "cwnd max = %lld bytes\n",
                static_cast<long long>(max_cwnd));
  out += label;
  for (const auto& row : grid) {
    out += "  |" + row + "\n";
  }
  out += "  +" + std::string(static_cast<std::size_t>(width), '-') + "\n";
  std::snprintf(label, sizeof(label), "   %.2fs ... %.2fs\n", t0.to_seconds(),
                t1.to_seconds());
  out += label;
  return out;
}

}  // namespace quicsteps::framework
