#pragma once
/// \file two_branch_net.hpp
/// The paper's primary contribution (Fig. 1): two cascaded fully-connected
/// branches.
///
///   Branch 1 (estimator):  [V(t), I(t), T(t)]            -> SoC(t)
///   Branch 2 (predictor):  [SoC(t), avg I, avg T, N]      -> SoC(t+N)
///
/// Default hyper-parameters follow Sec. III-A: three hidden layers of
/// 16/32/16 ReLU units per branch (an inverted bottleneck), scalar linear
/// outputs, 2,322 trainable parameters in total. Each branch owns a
/// StandardScaler for its raw inputs; SoC outputs are unscaled (already in
/// [0, 1]).

#include <cstdint>
#include <span>
#include <vector>

#include "nn/cost_model.hpp"
#include "nn/mlp.hpp"
#include "nn/scaler.hpp"

namespace socpinn::core {

struct TwoBranchConfig {
  std::vector<std::size_t> hidden = {16, 32, 16};
  nn::ActivationKind activation = nn::ActivationKind::kRelu;
};

/// Caller-owned scratch for allocation-free TwoBranchNet inference. Give
/// each thread its own workspace; the net itself stays const and
/// shareable.
struct InferenceWorkspace {
  std::vector<double> scratch;  ///< activations of nn::Mlp::infer_sample
  nn::Matrix out;               ///< result of the batched methods
};

class TwoBranchNet {
 public:
  /// Builds both branches with independent weight streams from `seed`.
  explicit TwoBranchNet(TwoBranchConfig config = {}, std::uint64_t seed = 1);

  /// --- Inference: the per-sample scalar reference. ---
  /// Each sample is standardized with the branch's scaler, then run
  /// through nn::Mlp::infer_sample. This is the oracle the batched serve
  /// forward (TwoBranchSnapshotT<double>, which engines and whole-dataset
  /// evaluation run) equals bitwise; it never touches a SIMD kernel. Const
  /// and allocation-free once `ws` is warm. Requires fitted scalers
  /// (throws std::logic_error otherwise; training fits them).

  /// Branch 1: estimated SoC(t) from raw sensor readings.
  [[nodiscard]] double estimate_soc(double voltage, double current,
                                    double temp_c,
                                    InferenceWorkspace& ws) const;

  /// Branch 2: predicted SoC(t+N) from the current SoC and the expected
  /// workload.
  [[nodiscard]] double predict_soc(double soc_now, double avg_current,
                                   double avg_temp_c, double horizon_s,
                                   InferenceWorkspace& ws) const;

  /// Loops of the scalar reference over a batch; the returned reference
  /// points into `ws` until its next batched use.
  /// Branch 1 over n x 3 [V, I, T] rows -> n x 1 SoC(t).
  const nn::Matrix& estimate_batch(const nn::Matrix& sensors_raw,
                                   InferenceWorkspace& ws) const;
  /// Branch 2 over n x 4 [SoC, avg I, avg T, N] rows -> n x 1 SoC(t+N).
  const nn::Matrix& predict_batch(const nn::Matrix& branch2_raw,
                                  InferenceWorkspace& ws) const;
  /// Branch 2 over a feature-major 4 x n panel ([SoC; avg I; avg T; N]
  /// rows, one column per sample) -> 1 x n SoC(t+N).
  const nn::Matrix& predict_batch_columns(
      const nn::Matrix& branch2_raw_columns, InferenceWorkspace& ws) const;

  /// --- Convenience wrappers using the net's own workspace. ---
  /// Not safe for concurrent use on one instance; prefer the const
  /// overloads above with per-thread workspaces.
  [[nodiscard]] double estimate_soc(double voltage, double current,
                                    double temp_c);
  [[nodiscard]] double predict_soc(double soc_now, double avg_current,
                                   double avg_temp_c, double horizon_s);
  [[nodiscard]] nn::Matrix estimate_batch(const nn::Matrix& sensors_raw);
  [[nodiscard]] nn::Matrix predict_batch(const nn::Matrix& branch2_raw);

  [[nodiscard]] nn::Mlp& branch1() { return branch1_; }
  [[nodiscard]] nn::Mlp& branch2() { return branch2_; }
  [[nodiscard]] const nn::Mlp& branch1() const { return branch1_; }
  [[nodiscard]] const nn::Mlp& branch2() const { return branch2_; }
  [[nodiscard]] nn::StandardScaler& scaler1() { return scaler1_; }
  [[nodiscard]] nn::StandardScaler& scaler2() { return scaler2_; }
  [[nodiscard]] const nn::StandardScaler& scaler1() const { return scaler1_; }
  [[nodiscard]] const nn::StandardScaler& scaler2() const { return scaler2_; }

  [[nodiscard]] const TwoBranchConfig& config() const { return config_; }

  /// Total trainable parameters (paper: 2,322 for the default config).
  [[nodiscard]] std::size_t num_params();

  /// Cost of one full cascaded inference (Branch 1 + Branch 2).
  [[nodiscard]] nn::ModelCost cost();

 private:
  TwoBranchConfig config_;
  nn::Mlp branch1_;
  nn::Mlp branch2_;
  nn::StandardScaler scaler1_;
  nn::StandardScaler scaler2_;
  InferenceWorkspace ws_;  ///< backs the convenience wrappers only

  /// Standardizes `row` in place with `scaler`, then runs `branch`'s
  /// reference forward; returns its scalar output.
  static double infer_row(const nn::Mlp& branch,
                          const nn::StandardScaler& scaler,
                          std::span<double> row, InferenceWorkspace& ws);

  /// infer_row over every sample of `raw`: rows of a row-major batch, or
  /// columns of a feature-major panel when `columns` is set.
  static const nn::Matrix& infer_batch(const nn::Mlp& branch,
                                       const nn::StandardScaler& scaler,
                                       const nn::Matrix& raw, bool columns,
                                       InferenceWorkspace& ws);
};

}  // namespace socpinn::core
