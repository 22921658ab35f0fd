// Cross-repetition aggregation: mean ± std of every reported metric, plus
// pooled distributions ("the values of all repetitions are combined for
// the evaluation", paper Section 4).
#pragma once

#include <map>
#include <vector>

#include "framework/experiment.hpp"
#include "metrics/stats.hpp"

namespace quicsteps::framework {

struct Aggregate {
  std::string label;
  int repetitions = 0;
  int completed = 0;

  metrics::Summary goodput_mbps;
  metrics::Summary dropped_packets;
  metrics::Summary declared_lost;
  metrics::Summary back_to_back_fraction;
  metrics::Summary below_1500us_fraction;
  metrics::Summary trains_up_to_5_fraction;
  metrics::Summary precision_ms;
  metrics::Summary send_syscalls;
  metrics::Summary cpu_time_ms;
  metrics::Summary rollbacks;

  /// Pooled per-packet gap samples (ms) across repetitions.
  std::vector<double> pooled_gaps_ms;
  /// Pooled packets-per-train-length histogram.
  std::map<std::size_t, std::int64_t> pooled_packets_by_length;
  std::int64_t pooled_total_packets = 0;

  metrics::Cdf gap_cdf() const { return metrics::Cdf(pooled_gaps_ms); }
  double fraction_in_trains_up_to(std::size_t n) const;
};

Aggregate aggregate(const std::string& label,
                    const std::vector<RunResult>& runs);

}  // namespace quicsteps::framework
