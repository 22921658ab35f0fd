// Small statistics toolkit: summaries (mean ± std, the paper's table
// format) and empirical CDFs (the paper's figure format).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace quicsteps::metrics {

struct Summary {
  double mean = 0.0;
  double stddev = 0.0;  // sample standard deviation (n-1)
  double min = 0.0;
  double max = 0.0;
  std::size_t count = 0;

  /// "12.34 ± 0.56" rendering used by the table reports.
  std::string to_string(int precision = 2) const;
};

Summary summarize(const std::vector<double>& values);

/// Streaming Summary: Welford's algorithm over a sample stream, producing
/// mean/stddev/min/max/count without retaining the samples. The lite
/// capture-analysis mode uses this at fabric scale (10k flows cannot each
/// keep every gap and offset); numerically it is the textbook single-pass
/// update, not bit-identical to summarize()'s two-pass result, but
/// deterministic for a given stream.
class StreamingSummary {
 public:
  void push(double x) {
    ++count_;
    if (count_ == 1) {
      min_ = max_ = x;
    } else {
      if (x < min_) min_ = x;
      if (x > max_) max_ = x;
    }
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
  }

  std::size_t count() const { return count_; }
  Summary summary() const;

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Empirical CDF over a sample set.
class Cdf {
 public:
  explicit Cdf(std::vector<double> samples);

  /// Fraction of samples <= x.
  double fraction_below(double x) const;
  /// Smallest sample value v such that fraction_below(v) >= p.
  double quantile(double p) const;

  std::size_t count() const { return sorted_.size(); }

  /// Evenly spaced (x, F(x)) points for plotting/reporting.
  std::vector<std::pair<double, double>> curve(std::size_t points) const;

 private:
  std::vector<double> sorted_;
};

/// Renders a fixed-width ASCII plot of one or more CDF curves over a shared
/// x-range (used by the figure benches to reproduce the paper's plots in
/// terminal form). Values map sample -> x; labels index series.
std::string render_ascii_cdf(
    const std::vector<std::pair<std::string, const Cdf*>>& series,
    double x_min, double x_max, int width = 72, int height = 16,
    const std::string& x_label = "");

}  // namespace quicsteps::metrics
