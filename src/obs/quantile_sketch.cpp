#include "obs/quantile_sketch.hpp"

#include <algorithm>
#include <limits>

namespace quicsteps::obs {

void QuantileSketch::merge(const QuantileSketch& other) {
  if (other.count_ == 0) return;
  if (other.pos_.size() > pos_.size()) pos_.resize(other.pos_.size(), 0);
  if (other.neg_.size() > neg_.size()) neg_.resize(other.neg_.size(), 0);
  for (std::size_t i = 0; i < other.pos_.size(); ++i) {
    pos_[i] += other.pos_[i];
  }
  for (std::size_t i = 0; i < other.neg_.size(); ++i) {
    neg_[i] += other.neg_[i];
  }
  if (count_ == 0 || other.min_ < min_) min_ = other.min_;
  if (count_ == 0 || other.max_ > max_) max_ = other.max_;
  count_ += other.count_;
  sum_ += other.sum_;
}

std::int64_t QuantileSketch::bucket_upper_edge(std::size_t index) {
  if (index < static_cast<std::size_t>(2 * kSubBuckets)) {
    return static_cast<std::int64_t>(index);
  }
  const std::size_t shift = index / static_cast<std::size_t>(kSubBuckets) - 1;
  const std::uint64_t base =
      static_cast<std::uint64_t>(index) -
      shift * static_cast<std::uint64_t>(kSubBuckets);  // in [32, 64)
  constexpr std::uint64_t kMax =
      static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max());
  if (base + 1 > (kMax >> shift)) {
    return std::numeric_limits<std::int64_t>::max();
  }
  return static_cast<std::int64_t>(((base + 1) << shift) - 1);
}

std::int64_t QuantileSketch::quantile(double q) const {
  if (count_ == 0) return 0;
  const double clamped = std::clamp(q, 0.0, 1.0);
  // Rank of the requested quantile, 1-based: smallest rank whose
  // cumulative count covers q of the population.
  std::int64_t target =
      static_cast<std::int64_t>(clamped * static_cast<double>(count_));
  if (static_cast<double>(target) < clamped * static_cast<double>(count_)) {
    ++target;  // ceil without float round-trip surprises
  }
  target = std::clamp<std::int64_t>(target, 1, count_);

  // The bucket's outer edge can lie past the observed range (a lone
  // -3,000 sample sits in a bucket whose edge is -3,007); the clamp keeps
  // the answer inside [min, max] and inside the same bucket.
  std::int64_t cumulative = 0;
  // Negative side first, most negative magnitude downward.
  for (std::size_t i = neg_.size(); i-- > 0;) {
    cumulative += neg_[i];
    if (cumulative >= target) {
      return std::clamp(-bucket_upper_edge(i), min_, max_);
    }
  }
  for (std::size_t i = 0; i < pos_.size(); ++i) {
    cumulative += pos_[i];
    if (cumulative >= target) {
      return std::clamp(bucket_upper_edge(i), min_, max_);
    }
  }
  // Unreachable when the counts are consistent; max() is the safe answer.
  return max_;
}

std::string QuantileSketch::to_string() const {
  return "count=" + std::to_string(count_) + " sum=" + std::to_string(sum_) +
         " min=" + std::to_string(min()) + " max=" + std::to_string(max()) +
         " p50=" + std::to_string(quantile(0.50)) +
         " p90=" + std::to_string(quantile(0.90)) +
         " p99=" + std::to_string(quantile(0.99)) +
         " p999=" + std::to_string(quantile(0.999));
}

}  // namespace quicsteps::obs
