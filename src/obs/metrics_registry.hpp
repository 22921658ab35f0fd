// MetricsRegistry: one deterministic sink for everything a run measures
// about itself.
//
// net::Counters snapshots (per-component packet/byte books), gauges (queue
// depth high-water marks, loop max-pending), counters (events executed per
// class, pacer releases), histograms (pacing error per path stage), and
// quantile sketches (fleet tails) all land here and are emitted through
// the same sorted-name discipline as net::CountersTable: rows are rendered
// in ascending metric-name order, so output is identical across runs and
// job counts regardless of insertion order. Ordered std::map storage makes
// the walk itself deterministic — the analyzer's determinism/
// unordered-container rule keeps it that way.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "net/counters.hpp"
#include "obs/quantile_sketch.hpp"

namespace quicsteps::obs {

/// Fixed-bound histogram over microsecond-scale values (pacing errors).
/// Bounds are inclusive upper edges. Out-of-range samples are never
/// silently clipped: values above the highest edge land in an explicit
/// overflow bucket, values below the lowest edge in an explicit underflow
/// counter, and both are emitted by to_string(). Integer counts plus an
/// exact integer sum keep rendering deterministic (no float
/// accumulation-order dependence).
class Histogram {
 public:
  /// Default edges for pacing-error distributions, in microseconds.
  static std::vector<std::int64_t> pacing_error_bounds_us();

  Histogram() : Histogram(pacing_error_bounds_us()) {}
  explicit Histogram(std::vector<std::int64_t> bounds);

  void observe(std::int64_t value);

  std::int64_t count() const { return count_; }
  std::int64_t sum() const { return sum_; }
  std::int64_t min() const { return min_; }
  std::int64_t max() const { return max_; }
  /// Samples strictly below the lowest edge / above the highest edge.
  /// Both are included in count()/sum()/min()/max().
  std::int64_t underflow() const { return underflow_; }
  std::int64_t overflow() const { return counts_.back(); }
  const std::vector<std::int64_t>& bounds() const { return bounds_; }
  /// bucket_counts()[i] counts values <= bounds()[i] (and above the
  /// previous edge); the final entry is the overflow bucket. Underflow
  /// samples are NOT in any bucket — see underflow().
  const std::vector<std::int64_t>& bucket_counts() const { return counts_; }

  /// "count=5 sum=120 min=-3 max=60 under=1 le10=2 le100=3 ... over=0" —
  /// sorted-edge, fixed-format rendering with the out-of-range mass
  /// explicit at both ends.
  std::string to_string() const;

 private:
  std::vector<std::int64_t> bounds_;  // ascending upper edges
  std::vector<std::int64_t> counts_;  // bounds_.size() + 1 (overflow)
  std::int64_t underflow_ = 0;
  std::int64_t count_ = 0;
  std::int64_t sum_ = 0;
  std::int64_t min_ = 0;
  std::int64_t max_ = 0;
};

/// Pre-resolved counter for hot loops: one map lookup at wiring time,
/// then a bare int64 add per touch. The handle points into the owning
/// MetricsRegistry's node-stable map storage — valid for the registry's
/// lifetime (moving the registry itself moves the map nodes with it, so
/// handles resolved before a run must not outlive the run's registry
/// instance).
class CounterHandle {
 public:
  CounterHandle() = default;

  /// Const: the handle itself is immutable (it mutates the counter it
  /// points at), so by-value lambda captures work without `mutable`.
  void add(std::int64_t delta) const { *value_ += delta; }

 private:
  friend class MetricsRegistry;
  explicit CounterHandle(std::int64_t* value) : value_(value) {}
  // Null only for a default-constructed handle; MetricsRegistry::counter
  // always binds. A default handle must be re-resolved before use.
  std::int64_t* value_ = nullptr;
};

class MetricsRegistry {
 public:
  /// Sets a point-in-time value (last write wins).
  void set_gauge(const std::string& name, std::int64_t value);
  /// Accumulates into a monotonic counter.
  void add_counter(const std::string& name, std::int64_t delta);
  /// Resolves a pre-bound handle to the named counter (created at zero on
  /// first use) — the per-packet call-site API; add_counter is the cold
  /// path.
  CounterHandle counter(const std::string& name);
  /// Returns the named histogram, creating it with default pacing-error
  /// bounds on first use.
  Histogram& histogram(const std::string& name);
  /// Returns the named quantile sketch, creating it empty on first use.
  QuantileSketch& sketch(const std::string& name);

  /// Folds a whole counters table in: each row becomes gauges under
  /// "<prefix><row>/..." (in, out, dropped, queue_peak).
  void add_counters_table(const std::string& prefix,
                          const net::CountersTable& table);

  const std::map<std::string, std::int64_t>& gauges() const {
    return gauges_;
  }
  const std::map<std::string, std::int64_t>& counters() const {
    return counters_;
  }
  const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }
  const std::map<std::string, QuantileSketch>& sketches() const {
    return sketches_;
  }

  /// One "name: value" line per metric, ascending name order across all
  /// four kinds (gauge / counter / histogram / sketch annotated by kind).
  std::string to_string() const;

 private:
  std::map<std::string, std::int64_t> gauges_;
  std::map<std::string, std::int64_t> counters_;
  std::map<std::string, Histogram> histograms_;
  std::map<std::string, QuantileSketch> sketches_;
};

}  // namespace quicsteps::obs
