#pragma once
/// \file dropout.hpp
/// Inverted dropout. Not used by the paper's reference configuration but
/// exposed for the architecture ablation benchmark.

#include <memory>
#include <string>

#include "nn/layer.hpp"
#include "util/rng.hpp"

namespace socpinn::nn {

class Dropout final : public Layer {
 public:
  /// `rate` is the probability of zeroing an element, in [0, 1).
  Dropout(double rate, util::Rng rng);

  Matrix forward(const Matrix& input, bool train) override;
  Matrix backward(const Matrix& grad_output) override;

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::unique_ptr<Layer> clone() const override;
  [[nodiscard]] double rate() const { return rate_; }

 private:
  double rate_;
  util::Rng rng_;
  Matrix mask_;  ///< scale factors of the last training forward
};

}  // namespace socpinn::nn
