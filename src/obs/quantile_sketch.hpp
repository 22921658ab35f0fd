// QuantileSketch: HDR-style log-linear quantile sketch for fleet tails.
//
// The fixed-bound obs::Histogram answers the paper's whole-run questions
// (decade buckets around zero) but cannot produce p99/p999 at fleet
// scale: its bounds clip and its resolution is a decade. This sketch
// buckets |value| log-linearly — each power-of-two octave is split into
// 32 linear sub-buckets (kSubBits = 5), so any representative is within
// a 1/32 ≈ 3.1% relative error of the true value — over the full signed
// int64 range, with an exact region for small magnitudes (|v| < 64, one
// bucket per integer). Pacing errors in microseconds and flow-completion
// times both fit: microsecond-exact near zero, 3% at the tail.
//
// Determinism and merging: buckets hold integer counts, so merging is an
// elementwise add — commutative and associative — and a sketch merged
// from per-flow sketches is bit-identical to one built serially, in any
// merge order. quantile() walks buckets from the most negative magnitude
// upward and returns the bucket's inclusive upper edge, a pure function
// of the counts. No floats touch the state; doubles appear only in the
// final rank arithmetic, identically on every platform we build for.
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

namespace quicsteps::obs {

class QuantileSketch {
 public:
  /// Linear sub-buckets per octave: 2^5 = 32 — relative error <= 1/32.
  static constexpr int kSubBits = 5;
  static constexpr std::int64_t kSubBuckets = std::int64_t{1} << kSubBits;

  QuantileSketch() = default;

  void observe(std::int64_t value) {
    if (count_ == 0 || value < min_) min_ = value;
    if (count_ == 0 || value > max_) max_ = value;
    ++count_;
    sum_ += value;
    if (value < 0) {
      bump(neg_, bucket_index(magnitude_of(value)));
    } else {
      bump(pos_, bucket_index(static_cast<std::uint64_t>(value)));
    }
  }

  /// Elementwise-add merge; the result is independent of merge order.
  void merge(const QuantileSketch& other);

  std::int64_t count() const { return count_; }
  std::int64_t sum() const { return sum_; }
  std::int64_t min() const { return count_ == 0 ? 0 : min_; }
  std::int64_t max() const { return count_ == 0 ? 0 : max_; }

  /// Inclusive upper edge of the bucket holding the rank-ceil(q*count)
  /// value (negative buckets report their most-negative edge). 0 when
  /// empty. q is clamped to [0, 1].
  std::int64_t quantile(double q) const;

  /// Signed bucket ordinal of `value` — equal ordinals = same bucket,
  /// adjacent ordinals = adjacent buckets. Tests use this to assert a
  /// sketch quantile lands within one bucket of the exact percentile.
  static std::int64_t bucket_of(std::int64_t value) {
    if (value < 0) {
      return -1 - static_cast<std::int64_t>(bucket_index(magnitude_of(value)));
    }
    return static_cast<std::int64_t>(
        bucket_index(static_cast<std::uint64_t>(value)));
  }

  /// "count=N sum=S min=m max=M p50=a p90=b p99=c p999=d" — fixed-format,
  /// integer-only rendering (registry/report emission).
  std::string to_string() const;

 private:
  /// |value| without the INT64_MIN negation UB: two's-complement
  /// magnitude in uint64.
  static std::uint64_t magnitude_of(std::int64_t value) {
    return value < 0 ? 0ull - static_cast<std::uint64_t>(value)
                     : static_cast<std::uint64_t>(value);
  }

  /// Log-linear bucket of a magnitude: exact below 2*kSubBuckets, then
  /// 32 linear sub-buckets per octave. Monotone in `mag`.
  static std::size_t bucket_index(std::uint64_t mag) {
    if (mag < static_cast<std::uint64_t>(2 * kSubBuckets)) {
      return static_cast<std::size_t>(mag);  // one bucket per integer
    }
    const int msb = 63 - std::countl_zero(mag);  // floor(log2), >= kSubBits+1
    const int shift = msb - kSubBits;            // >= 1
    return static_cast<std::size_t>(shift) * kSubBuckets +
           static_cast<std::size_t>(mag >> shift);
  }

  /// Inclusive upper edge of bucket `index` (the quantile representative),
  /// saturating at INT64_MAX for the top octaves.
  static std::int64_t bucket_upper_edge(std::size_t index);

  /// Counts grow on demand to the highest touched bucket (pacing errors
  /// rarely leave the first few octaves, so an idle sketch stays tiny).
  static void bump(std::vector<std::int64_t>& side, std::size_t index) {
    if (index >= side.size()) side.resize(index + 1, 0);
    ++side[index];
  }

  std::vector<std::int64_t> pos_;  // bucket counts for value >= 0
  std::vector<std::int64_t> neg_;  // bucket counts for value < 0, by |value|
  std::int64_t count_ = 0;
  std::int64_t sum_ = 0;
  std::int64_t min_ = 0;
  std::int64_t max_ = 0;
};

}  // namespace quicsteps::obs
