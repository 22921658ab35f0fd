#include "cc/cc_factory.hpp"

#include "cc/cubic.hpp"
#include "cc/new_reno.hpp"

namespace quicsteps::cc {

std::unique_ptr<CongestionController> make_controller(const CcConfig& config) {
  switch (config.algorithm) {
    case CcAlgorithm::kNewReno:
      return std::make_unique<NewReno>();
    case CcAlgorithm::kCubic:
      return std::make_unique<Cubic>(config);
    case CcAlgorithm::kBbr:
      return std::make_unique<Bbr>(Bbr::Config{.flavor = config.bbr_flavor});
  }
  return nullptr;
}

}  // namespace quicsteps::cc
