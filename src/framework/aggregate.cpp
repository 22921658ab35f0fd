#include "framework/aggregate.hpp"

namespace quicsteps::framework {

double Aggregate::fraction_in_trains_up_to(std::size_t n) const {
  if (pooled_total_packets == 0) return 0.0;
  std::int64_t covered = 0;
  for (const auto& [len, packets] : pooled_packets_by_length) {
    if (len <= n) covered += packets;
  }
  return static_cast<double>(covered) /
         static_cast<double>(pooled_total_packets);
}

Aggregate aggregate(const std::string& label,
                    const std::vector<RunResult>& runs) {
  Aggregate agg;
  agg.label = label;
  agg.repetitions = static_cast<int>(runs.size());

  std::vector<double> goodput, dropped, lost, b2b, below15, trains5,
      precision, syscalls, cpu, rollbacks;
  for (const auto& run : runs) {
    if (run.completed) ++agg.completed;
    goodput.push_back(run.goodput.goodput.mbps());
    dropped.push_back(static_cast<double>(run.dropped_packets));
    lost.push_back(static_cast<double>(run.packets_declared_lost));
    b2b.push_back(run.gaps.back_to_back_fraction);
    below15.push_back(run.gaps.below_1500us_fraction);
    trains5.push_back(run.trains.fraction_in_trains_up_to(5));
    precision.push_back(run.precision.precision_ms);
    syscalls.push_back(static_cast<double>(run.send_syscalls));
    cpu.push_back(run.cpu_time_ms);
    rollbacks.push_back(static_cast<double>(run.cc_rollbacks));

    agg.pooled_gaps_ms.insert(agg.pooled_gaps_ms.end(),
                              run.gaps.gaps_ms.begin(),
                              run.gaps.gaps_ms.end());
    for (const auto& [len, packets] : run.trains.packets_by_length) {
      agg.pooled_packets_by_length[len] += packets;
    }
    agg.pooled_total_packets += run.trains.total_packets;
  }

  agg.goodput_mbps = metrics::summarize(goodput);
  agg.dropped_packets = metrics::summarize(dropped);
  agg.declared_lost = metrics::summarize(lost);
  agg.back_to_back_fraction = metrics::summarize(b2b);
  agg.below_1500us_fraction = metrics::summarize(below15);
  agg.trains_up_to_5_fraction = metrics::summarize(trains5);
  agg.precision_ms = metrics::summarize(precision);
  agg.send_syscalls = metrics::summarize(syscalls);
  agg.cpu_time_ms = metrics::summarize(cpu);
  agg.rollbacks = metrics::summarize(rollbacks);
  return agg;
}

}  // namespace quicsteps::framework
