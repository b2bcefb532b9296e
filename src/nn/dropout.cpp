#include "nn/dropout.hpp"

#include <sstream>
#include <stdexcept>

namespace socpinn::nn {

Dropout::Dropout(double rate, util::Rng rng) : rate_(rate), rng_(rng) {
  if (rate < 0.0 || rate >= 1.0) {
    throw std::invalid_argument("Dropout: rate must be in [0, 1)");
  }
}

Matrix Dropout::forward(const Matrix& input, bool train) {
  if (!train || rate_ == 0.0) {
    mask_ = Matrix::full(input.rows(), input.cols(), 1.0);
    return input;
  }
  const double keep = 1.0 - rate_;
  mask_ = Matrix(input.rows(), input.cols());
  for (auto& m : mask_.data()) {
    m = rng_.bernoulli(keep) ? 1.0 / keep : 0.0;
  }
  return hadamard(input, mask_);
}

Matrix Dropout::backward(const Matrix& grad_output) {
  if (grad_output.rows() != mask_.rows() ||
      grad_output.cols() != mask_.cols()) {
    throw std::invalid_argument("Dropout::backward: shape mismatch");
  }
  return hadamard(grad_output, mask_);
}

std::string Dropout::name() const {
  std::ostringstream out;
  out << "dropout(" << rate_ << ")";
  return out.str();
}

std::unique_ptr<Layer> Dropout::clone() const {
  return std::make_unique<Dropout>(*this);
}

}  // namespace socpinn::nn
