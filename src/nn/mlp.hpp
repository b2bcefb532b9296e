#pragma once
/// \file mlp.hpp
/// Sequential container of layers plus the `make` factory that builds the
/// paper's inverted-bottleneck branches (e.g. {3,16,32,16,1} with ReLU).

#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "nn/activation.hpp"
#include "nn/dense.hpp"
#include "nn/layer.hpp"
#include "util/rng.hpp"

namespace socpinn::nn {

class Mlp {
 public:
  Mlp() = default;

  /// Deep-copying value semantics so trained models can be snapshotted.
  Mlp(const Mlp& other);
  Mlp& operator=(const Mlp& other);
  Mlp(Mlp&&) noexcept = default;
  Mlp& operator=(Mlp&&) noexcept = default;

  /// Builds a fully-connected net: dims = {in, h1, ..., out} with
  /// `hidden_activation` after every hidden layer and a linear output.
  /// Throws if fewer than two dims.
  [[nodiscard]] static Mlp make(const std::vector<std::size_t>& dims,
                                util::Rng& rng,
                                ActivationKind hidden_activation =
                                    ActivationKind::kRelu);

  /// Appends a layer (takes ownership). Dense, Activation and Dropout
  /// are the known kinds; any other layer throws std::invalid_argument,
  /// since infer_sample could not run it.
  void add(std::unique_ptr<Layer> layer);

  /// Forward pass through all layers. Caches activations for backward().
  Matrix forward(const Matrix& input, bool train = false);

  /// The per-sample scalar reference forward: the oracle the batched serve
  /// path (MlpSnapshotT, TwoBranchSnapshotT) is checked against bitwise.
  /// Every Dense output starts from its bias and adds x[k] * W(k, j) for k
  /// ascending, unfused (the library builds with -ffp-contract=off) — the
  /// panel kernel's per-element order. Activations apply activate();
  /// Dropout is the identity. `x` holds standardized features, at most as
  /// many as the widest Dense layer; `scratch` needs sample_scratch_size()
  /// doubles. Returns the outputs, a view into `scratch`. Const and
  /// allocation-free: concurrent calls are safe with per-caller scratch.
  [[nodiscard]] std::span<const double> infer_sample(
      std::span<const double> x, std::span<double> scratch) const;

  /// Scratch doubles infer_sample needs: two buffers of the widest layer.
  [[nodiscard]] std::size_t sample_scratch_size() const {
    return 2 * max_width_;
  }

  /// Convenience single-sample forward through forward() (allocating);
  /// returns the scalar first output.
  [[nodiscard]] double predict_scalar(std::span<const double> features);

  /// Backward pass (call after forward with train=true semantics).
  Matrix backward(const Matrix& grad_output);

  /// Zeroes all parameter gradients.
  void zero_grad();

  /// Flattened parameter/gradient views across layers.
  [[nodiscard]] std::vector<Matrix*> params();
  [[nodiscard]] std::vector<Matrix*> grads();

  [[nodiscard]] std::size_t num_params();
  [[nodiscard]] std::size_t macs_per_sample() const;

  /// First dense layer's input width / last dense layer's output width.
  [[nodiscard]] std::size_t input_dim() const;
  [[nodiscard]] std::size_t output_dim() const;

  [[nodiscard]] std::size_t num_layers() const { return layers_.size(); }
  [[nodiscard]] Layer& layer(std::size_t i) { return *layers_.at(i); }
  [[nodiscard]] const Layer& layer(std::size_t i) const {
    return *layers_.at(i);
  }

  /// "dense(3->16) -> relu -> ..." summary.
  [[nodiscard]] std::string describe() const;

 private:
  /// A layer as infer_sample runs it, resolved once in add(): a Dense
  /// layer, or (dense == nullptr) an activation. Dropout adds no step.
  struct Step {
    const Dense* dense = nullptr;
    ActivationKind act = ActivationKind::kIdentity;
  };

  std::vector<std::unique_ptr<Layer>> layers_;
  std::vector<Step> steps_;
  std::size_t max_width_ = 0;  ///< widest Dense input or output
};

}  // namespace socpinn::nn
