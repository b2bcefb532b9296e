#include "serve/engine_shell.hpp"

#include <stdexcept>
#include <string>

namespace socpinn::serve::detail {

std::shared_ptr<const core::TwoBranchSnapshot> convert(
    const core::TwoBranchNet& net, core::Precision precision,
    const char* engine, const char* config) {
  core::require_trained(net,
                        std::string(engine) + ": " + config + "::precision");
  (void)nn::simd::active_isa();
  return std::make_shared<const core::TwoBranchSnapshot>(net, precision);
}

void check_swap(const core::TwoBranchSnapshot* snapshot,
                core::Precision precision, const char* engine,
                const char* config) {
  if (snapshot == nullptr) {
    throw std::invalid_argument(std::string(engine) +
                                "::swap_model: null snapshot");
  }
  if (snapshot->precision() != precision) {
    throw std::invalid_argument(
        std::string(engine) +
        "::swap_model: snapshot precision does not match " + config +
        "::precision");
  }
}

}  // namespace socpinn::serve::detail
