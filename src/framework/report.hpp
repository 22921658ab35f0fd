// Terminal rendering of paper-style tables and figures.
#pragma once

#include <string>
#include <vector>

#include "framework/aggregate.hpp"
#include "framework/experiment.hpp"
#include "sim/time.hpp"

namespace quicsteps::framework {

/// Table 1 / Table 2 style: label, dropped packets, goodput.
std::string render_goodput_table(const std::vector<Aggregate>& rows,
                                 const std::string& title);

/// Figure 2 style: pooled inter-packet gap CDFs (x axis rendered in ms).
std::string render_gap_figure(const std::vector<Aggregate>& rows,
                              const std::string& title,
                              sim::Duration x_max = sim::Duration::millis(2));

/// Figure 3 style: packet-train length table — share of packets per train
/// length bucket, plus the <=5 headline number.
std::string render_train_figure(const std::vector<Aggregate>& rows,
                                const std::string& title);

/// Section 4.4 style: precision (stddev of expected-vs-actual) per config.
std::string render_precision_table(const std::vector<Aggregate>& rows,
                                   const std::string& title);

/// Fig. 7 style: cwnd time series as an ASCII plot, read from a traced
/// run's recovery samples.
std::string render_cwnd_trace(const RunResult& run, const std::string& title,
                              int width = 78, int height = 16);

}  // namespace quicsteps::framework
