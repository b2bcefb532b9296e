#pragma once
/// A hand-checkable Dense(2->2) -> ReLU -> Dense(2->1) net for pinning the
/// scalar reference nn::Mlp::infer_sample to exact values. Every weight,
/// bias and input is dyadic, so each expected output below is exact and
/// was worked out by hand:
///
///   W1 = [[1, -1], [1, 0.5]] (in x out), b1 = [1, -0.5]
///   W2 = [[0.5], [-2]],                   b2 = [0.25]

#include <memory>
#include <utility>

#include "nn/activation.hpp"
#include "nn/dense.hpp"
#include "nn/mlp.hpp"
#include "util/rng.hpp"

namespace socpinn::testing {

inline nn::Mlp make_known_answer_net() {
  util::Rng rng(1);  // weights are overwritten below
  auto hidden = std::make_unique<nn::Dense>(2, 2, rng);
  hidden->weights() = nn::Matrix(2, 2, {1.0, -1.0, 1.0, 0.5});
  hidden->bias() = nn::Matrix(1, 2, {1.0, -0.5});
  auto output = std::make_unique<nn::Dense>(2, 1, rng);
  output->weights() = nn::Matrix(2, 1, {0.5, -2.0});
  output->bias() = nn::Matrix(1, 1, {0.25});
  nn::Mlp mlp;
  mlp.add(std::move(hidden));
  mlp.add(std::make_unique<nn::Activation>(nn::ActivationKind::kRelu));
  mlp.add(std::move(output));
  return mlp;
}

struct KnownAnswer {
  double x[2];
  double y;
};

/// Inputs with their exact outputs.
///  * (0.5, 1.5): h = (3, -0.25) -> ReLU (3, 0) -> y = 0.25 + 1.5 = 1.75.
///  * (-1, 3): h = (3, 2), both active -> y = 0.25 + 1.5 - 4 = -2.25.
///  * (2^-53, 2^-52) pins the order. Hidden unit 0 adds 1 (bias),
///    2^-53 and 2^-52. Bias first, k ascending: 1 + 2^-53 ties to 1, then
///    1 + 2^-52 is exact. Bias last, or k descending, ends at
///    1 + 3 * 2^-53, which ties to 1 + 2^-51. Unit 1 is
///    -0.5 - 2^-53 + 2^-53 = -0.5 -> 0, so y = 0.25 + 0.5 * h0: 0.75 + 2^-53
///    here, 0.75 + 2^-52 under either other order.
inline constexpr KnownAnswer kKnownAnswers[] = {
    {{0.5, 1.5}, 1.75},
    {{-1.0, 3.0}, -2.25},
    {{0x1p-53, 0x1p-52}, 0.75 + 0x1p-53},
};

}  // namespace socpinn::testing
