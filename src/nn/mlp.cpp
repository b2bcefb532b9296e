#include "nn/mlp.hpp"

#include <algorithm>
#include <stdexcept>

#include "nn/dropout.hpp"

namespace socpinn::nn {

namespace {

/// out = b + x W for one sample: each output starts from its bias, then
/// adds x[k] * W(k, j) for k ascending. The j loop is unit-stride over a
/// row of W, so it vectorizes without changing any element's order.
void dense_sample(const double* __restrict x, const double* __restrict w,
                  const double* __restrict b, double* __restrict out,
                  std::size_t in, std::size_t cols) {
  for (std::size_t j = 0; j < cols; ++j) out[j] = b[j];
  for (std::size_t k = 0; k < in; ++k) {
    const double xk = x[k];
    const double* __restrict w_row = w + k * cols;
    for (std::size_t j = 0; j < cols; ++j) out[j] += xk * w_row[j];
  }
}

}  // namespace

Mlp::Mlp(const Mlp& other) {
  layers_.reserve(other.layers_.size());
  for (const auto& layer : other.layers_) add(layer->clone());
}

Mlp& Mlp::operator=(const Mlp& other) {
  if (this == &other) return *this;
  Mlp copy(other);
  return *this = std::move(copy);
}

Mlp Mlp::make(const std::vector<std::size_t>& dims, util::Rng& rng,
              ActivationKind hidden_activation) {
  if (dims.size() < 2) {
    throw std::invalid_argument("Mlp::make: need at least input and output");
  }
  Mlp net;
  for (std::size_t i = 0; i + 1 < dims.size(); ++i) {
    net.add(std::make_unique<Dense>(dims[i], dims[i + 1], rng));
    const bool is_last = i + 2 == dims.size();
    if (!is_last) {
      net.add(std::make_unique<Activation>(hidden_activation));
    }
  }
  return net;
}

void Mlp::add(std::unique_ptr<Layer> layer) {
  if (!layer) throw std::invalid_argument("Mlp::add: null layer");
  if (const auto* dense = dynamic_cast<const Dense*>(layer.get())) {
    steps_.push_back({dense, ActivationKind::kIdentity});
    max_width_ = std::max({max_width_, dense->input_dim(),
                           dense->output_dim()});
  } else if (const auto* act = dynamic_cast<const Activation*>(layer.get())) {
    steps_.push_back({nullptr, act->kind()});
  } else if (dynamic_cast<const Dropout*>(layer.get()) == nullptr) {
    throw std::invalid_argument("Mlp::add: unsupported layer '" +
                                layer->name() + "'");
  }
  layers_.push_back(std::move(layer));
}

Matrix Mlp::forward(const Matrix& input, bool train) {
  Matrix x = input;
  for (auto& layer : layers_) x = layer->forward(x, train);
  return x;
}

std::span<const double> Mlp::infer_sample(std::span<const double> x,
                                          std::span<double> scratch) const {
  const std::size_t half = max_width_;
  if (x.size() > half || scratch.size() < 2 * half) {
    throw std::invalid_argument("Mlp::infer_sample: input wider than the "
                                "widest layer or scratch too small");
  }
  double* cur = scratch.data();
  double* next = cur + half;
  std::copy(x.begin(), x.end(), cur);
  std::size_t width = x.size();
  for (const Step& step : steps_) {
    if (step.dense == nullptr) {
      activate_inplace(step.act, {cur, width});
      continue;
    }
    const Matrix& w = step.dense->weights();
    if (w.rows() != width || w.cols() > half) {
      throw std::invalid_argument("Mlp::infer_sample: layer shape mismatch");
    }
    dense_sample(cur, w.data().data(), step.dense->bias().data().data(), next,
                 width, w.cols());
    std::swap(cur, next);
    width = w.cols();
  }
  return {cur, width};
}

double Mlp::predict_scalar(std::span<const double> features) {
  const Matrix out = forward(Matrix::row_vector(features), /*train=*/false);
  if (out.cols() == 0 || out.rows() == 0) {
    throw std::logic_error("Mlp::predict_scalar: empty output");
  }
  return out(0, 0);
}

Matrix Mlp::backward(const Matrix& grad_output) {
  Matrix g = grad_output;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    g = (*it)->backward(g);
  }
  return g;
}

void Mlp::zero_grad() {
  for (auto& layer : layers_) layer->zero_grad();
}

std::vector<Matrix*> Mlp::params() {
  std::vector<Matrix*> out;
  for (auto& layer : layers_) {
    for (Matrix* p : layer->params()) out.push_back(p);
  }
  return out;
}

std::vector<Matrix*> Mlp::grads() {
  std::vector<Matrix*> out;
  for (auto& layer : layers_) {
    for (Matrix* g : layer->grads()) out.push_back(g);
  }
  return out;
}

std::size_t Mlp::num_params() {
  std::size_t n = 0;
  for (auto& layer : layers_) n += layer->num_params();
  return n;
}

std::size_t Mlp::macs_per_sample() const {
  std::size_t n = 0;
  for (const auto& layer : layers_) n += layer->macs_per_sample();
  return n;
}

std::size_t Mlp::input_dim() const {
  for (const auto& layer : layers_) {
    if (layer->input_dim() != 0) return layer->input_dim();
  }
  return 0;
}

std::size_t Mlp::output_dim() const {
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    if ((*it)->output_dim() != 0) return (*it)->output_dim();
  }
  return 0;
}

std::string Mlp::describe() const {
  std::string out;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    if (i > 0) out += " -> ";
    out += layers_[i]->name();
  }
  return out;
}

}  // namespace socpinn::nn
