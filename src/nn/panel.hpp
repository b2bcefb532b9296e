#pragma once
/// \file panel.hpp
/// The feature-major serve forward over MatrixT<T> panels (nn/matrix.hpp).
///
/// These types carry the only batched forward: RolloutEngine / FleetEngine
/// serve through it at either precision, and whole-dataset evaluation runs
/// it at double. At float the same register tiles pack twice the SIMD
/// lanes. Weights and scaler stats are converted ONCE from a trained f64
/// model (MlpSnapshotT / ScalerStatsT), so the training network is never
/// touched by serving. Instantiated at double, MlpSnapshotT reproduces the
/// scalar reference Mlp::infer_sample bitwise (tests/nn/test_panel.cpp),
/// which pins the template to the reference arithmetic.

#include <cstddef>
#include <vector>

#include "nn/activation.hpp"
#include "nn/matrix.hpp"
#include "nn/scaler.hpp"

namespace socpinn::nn {

class Mlp;

/// Feature-major dense forward over MatrixT panels: `activations` is
/// (in_features x batch), `weights` (in x out) row-major, `bias_row`
/// 1 x out; computes out = W^T * activations + bias (out_features x batch)
/// through the runtime-dispatched panel kernel (nn/panel_dispatch.hpp).
/// Per element: bias first, then k ascending, unfused — the order of
/// Mlp::infer_sample. `out` is resized with capacity reuse and must not
/// alias an input.
template <typename T>
void dense_forward_columns(const MatrixT<T>& activations,
                           const MatrixT<T>& weights,
                           const MatrixT<T>& bias_row, MatrixT<T>& out);

/// StandardScaler moments converted once to T: the serve-side standardize
/// step of the reduced-precision backend.
template <typename T>
struct ScalerStatsT {
  std::vector<T> means;
  std::vector<T> stds;

  /// Converts a fitted scaler's moments (throws std::logic_error when the
  /// scaler is unfitted). At T = double the copy is lossless, so the
  /// round-trip back to f64 is exact (tests cover the f32 round-trip too).
  [[nodiscard]] static ScalerStatsT from(const StandardScaler& scaler);

  [[nodiscard]] std::size_t num_features() const { return means.size(); }

  /// Feature-major standardize: x is (features x batch), row f standardized
  /// with moments f, written into out with capacity reuse. Per element the
  /// arithmetic of StandardScaler::transform_row: (x - mean) / std.
  /// forward_blocked runs the same arithmetic block by block.
  void transform_columns_into(const MatrixT<T>& x, MatrixT<T>& out) const;
};

/// Pad tile of forward_blocked: a panel narrower than this runs padded
/// with zero columns to this width, so a thin batch (a few re-anchored
/// cells, the last lanes of a rollout) still runs the vectorized kernel
/// instead of its scalar remainder. Callers stage exactly their columns;
/// this policy lives only here and in panel.cpp (lint rule pad-policy).
inline constexpr std::size_t kColumnsMinBatch = 32;

/// Preallocated activation panels for one MlpSnapshotT inference pass.
/// One owner (typically one shard).
template <typename T>
class ForwardWorkspaceT {
 public:
  void ensure(std::size_t n) {
    if (n > buffers_.size()) buffers_.resize(n);
  }

  [[nodiscard]] MatrixT<T>& buffer(std::size_t i) {
    ensure(i + 1);
    return buffers_[i];
  }

  [[nodiscard]] std::size_t num_buffers() const { return buffers_.size(); }

 private:
  std::vector<MatrixT<T>> buffers_;
};

/// Immutable inference-only snapshot of a trained Mlp at scalar type T:
/// dense weights/biases and activation kinds captured once, then served
/// through the feature-major panel kernel. The snapshot never aliases the
/// source net, so a trained f64 model stays bitwise untouched while its
/// f32 twin serves traffic.
template <typename T>
class MlpSnapshotT {
 public:
  MlpSnapshotT() = default;

  /// Captures every layer. Throws std::invalid_argument on layer kinds the
  /// inference path does not know (the paper's branches are Dense +
  /// Activation only; Dropout is a training-time construct).
  [[nodiscard]] static MlpSnapshotT from(const Mlp& mlp);

  /// Feature-major inference: `input_columns` is (in_features x batch) and
  /// the returned reference (out_features x batch) points into `ws`, valid
  /// until its next use. Allocation-free once ws is warm at the batch size.
  const MatrixT<T>& infer_columns(const MatrixT<T>& input_columns,
                                  ForwardWorkspaceT<T>& ws) const;

  [[nodiscard]] std::size_t num_layers() const { return steps_.size(); }

 private:
  struct Step {
    bool is_dense = false;
    MatrixT<T> w;  ///< in x out (dense only)
    MatrixT<T> b;  ///< 1 x out (dense only)
    ActivationKind act = ActivationKind::kIdentity;  ///< activation only
  };
  std::vector<Step> steps_;
};

/// Column block of forward_blocked. 256 is a multiple of every ISA's
/// register tile (up to 64 f32 columns), so blocks add no scalar
/// remainder. On fleet_bulk's 16384-column f64 shards 128 measured within
/// 3% of 256 and 512 about 7% slower.
inline constexpr std::size_t kColumnsBlock = 256;

/// One branch over a raw feature-major panel: standardize with `scaler`
/// into `scaled`, then run `branch`; the (out_features x n) result points
/// into `ws` until its next use. The chain runs one block of at most
/// kColumnsBlock columns at a time, so the hidden panels stay at
/// rows x 256 (64 KiB for the 32-row f64 layer) and in L2 instead of
/// streaming a panel-wide buffer per layer. A panel narrower than
/// kColumnsMinBatch runs as one block padded with zero columns to that
/// width inside `scaled`; the ragged tail block of a wider panel runs
/// unpadded. Each block's real columns are gathered in `ws` slot
/// num_layers() + 1 (past the layer buffers and the layerless-copy slot) at
/// every width, so that slot stays warm: a thin panel after wider ones
/// allocates nothing.
/// Columns are independent, so results are bitwise those of the unblocked,
/// unpadded chain at every width.
template <typename T>
const MatrixT<T>& forward_blocked(const MlpSnapshotT<T>& branch,
                                  const ScalerStatsT<T>& scaler,
                                  const MatrixT<T>& panel, MatrixT<T>& scaled,
                                  ForwardWorkspaceT<T>& ws);

}  // namespace socpinn::nn
