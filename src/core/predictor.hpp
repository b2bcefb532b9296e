#pragma once
/// \file predictor.hpp
/// Inference paths of the cascaded model:
///
///  * single-step cascade (Branch 1 estimate feeds Branch 2) — the test
///    condition of Figs. 3 and 4 — and whole-dataset Branch-1 estimates,
///    both through the f64 serving snapshot (TwoBranchSnapshotT<double>),
///    so the paper's numbers come from the code that serves;
///  * the Physics-Only baseline (Branch 2 replaced by Eq. 1);
///  * autoregressive multi-step rollout (Fig. 2) used for the full
///    discharge analysis of Fig. 5, where voltage is consumed only at the
///    very first timestamp.

#include <vector>

#include "core/cell_params.hpp"
#include "core/two_branch_net.hpp"
#include "data/windowing.hpp"

namespace socpinn::core {

/// Predictions for a horizon evaluation set.
struct HorizonPrediction {
  std::vector<double> soc_now_est;  ///< Branch-1 estimates of SoC(t)
  std::vector<double> soc_pred;     ///< predicted SoC(t+N)
};

/// Branch-1 SoC(t) estimate of every raw sensor row (n x 3 [V, I, T]),
/// bitwise the per-sample TwoBranchNet::estimate_soc. Requires a fitted
/// Branch-1 scaler (throws std::logic_error otherwise); Branch 2 may be
/// untrained.
[[nodiscard]] std::vector<double> estimate_dataset(const TwoBranchNet& net,
                                                   const nn::Matrix& sensors);

/// Full cascaded prediction: SoC(t) from Branch 1, SoC(t+N) from Branch 2.
/// Throws std::invalid_argument on an empty set or a workload that is not
/// n x 3.
[[nodiscard]] HorizonPrediction predict_cascade(
    const TwoBranchNet& net, const data::HorizonEvalData& eval);

/// Physics-Only baseline: Branch 1 still estimates SoC(t), but the future
/// value comes exclusively from Eq. 1 with the cell's parameters
/// (capacity + coulombic efficiency; the default efficiency of 1.0
/// reproduces the old rated-capacity-only form bitwise). Same input
/// checks as predict_cascade.
[[nodiscard]] HorizonPrediction predict_physics_only(
    const TwoBranchNet& net, const data::HorizonEvalData& eval,
    const CellParams& params);

/// One autoregressive trajectory.
struct Rollout {
  std::vector<double> times_s;  ///< prediction timestamps (t0, t0+N, ...)
  std::vector<double> soc;      ///< predicted SoC at those timestamps
  std::vector<double> truth;    ///< ground-truth SoC at those timestamps

  /// |predicted - true| at the end of the trajectory. Throws
  /// std::logic_error when either `soc` or `truth` is empty (a
  /// default-constructed or partially filled Rollout) instead of
  /// dereferencing back() of an empty vector.
  [[nodiscard]] double final_abs_error() const;
};

/// Rolls the cascade over a recorded trace: Branch 1 estimates SoC at the
/// first sample (the only time voltage is used); Branch 2 then advances the
/// estimate by `horizon_s` per step, fed with the trace's average current
/// and temperature over each upcoming window (the "planned workload").
///
/// Batch-of-1 wrapper over serve::RolloutEngine — the fleet path and this
/// scalar path are one implementation and agree bitwise. Predictions are
/// clamped into [0, 1] per step (the engine's clamp_soc default, shared
/// with FleetEngine); construct a RolloutEngine with clamp_soc = false for
/// the raw network outputs.
[[nodiscard]] Rollout rollout_cascade(const TwoBranchNet& net,
                                      const data::Trace& trace,
                                      double horizon_s);

/// Same rollout with Eq. 1 instead of Branch 2 (Physics-Only line of
/// Fig. 5). Predictions are clamped to [0, 1] as real BMS logic would
/// (same clamp_soc knob as rollout_cascade).
[[nodiscard]] Rollout rollout_physics_only(const TwoBranchNet& net,
                                           const data::Trace& trace,
                                           double horizon_s,
                                           const CellParams& params);

/// Closed-loop rollout: rollout_cascade plus scheduled mid-rollout
/// Branch-1 re-anchors — at each of `plan`'s step indices the lane
/// consumes the plan's [V, I, T] row as a fresh Branch-1 estimate that
/// replaces the trajectory point at that timestamp and seeds the next
/// window (the streaming estimator the paper's open-loop Fig. 5 gestures
/// at; see data::build_reanchor_plan for extracting a periodic plan from
/// a recorded trace). Batch-of-1 wrapper over serve::RolloutEngine, same
/// default clamping as rollout_cascade. An empty plan reproduces
/// rollout_cascade exactly.
[[nodiscard]] Rollout rollout_closed_loop(const TwoBranchNet& net,
                                          const data::Trace& trace,
                                          double horizon_s,
                                          const data::ReanchorPlan& plan);

}  // namespace socpinn::core
