#include "pacing/pacer.hpp"

#include "pacing/interval_pacer.hpp"
#include "pacing/leaky_bucket_pacer.hpp"

namespace quicsteps::pacing {

std::unique_ptr<Pacer> make_pacer(const PacerConfig& config) {
  switch (config.kind) {
    case PacerKind::kInterval:
      return std::make_unique<IntervalPacer>(config.max_schedule_ahead);
    case PacerKind::kLeakyBucket:
      return std::make_unique<LeakyBucketPacer>(config.bucket_depth_bytes);
  }
  return nullptr;
}

}  // namespace quicsteps::pacing
