#include "nn/panel.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "nn/dense.hpp"
#include "nn/mlp.hpp"
#include "nn/panel_dispatch.hpp"
#include "util/annotations.hpp"

namespace socpinn::nn {

namespace {

/// Elementwise activation at scalar type T — the same formulas as
/// activation.cpp's double path, evaluated natively at T so the float
/// backend never round-trips through double.
template <typename T>
SOCPINN_HOT void activate_columns(ActivationKind kind, const MatrixT<T>& in,
                                  MatrixT<T>& out) {
  // SOCPINN_HOT_ALLOW(resize): warm workspace capacity, layer shapes fixed
  out.resize(in.rows(), in.cols());
  const auto src = in.data();
  const auto dst = out.data();
  switch (kind) {
    case ActivationKind::kRelu:
      for (std::size_t i = 0; i < src.size(); ++i) {
        dst[i] = src[i] > T(0) ? src[i] : T(0);
      }
      return;
    case ActivationKind::kLeakyRelu:
      for (std::size_t i = 0; i < src.size(); ++i) {
        dst[i] = src[i] > T(0) ? src[i] : T(0.01) * src[i];
      }
      return;
    case ActivationKind::kTanh:
      for (std::size_t i = 0; i < src.size(); ++i) {
        dst[i] = std::tanh(src[i]);
      }
      return;
    case ActivationKind::kSigmoid:
      for (std::size_t i = 0; i < src.size(); ++i) {
        dst[i] = T(1) / (T(1) + std::exp(-src[i]));
      }
      return;
    case ActivationKind::kIdentity:
      for (std::size_t i = 0; i < src.size(); ++i) dst[i] = src[i];
      return;
  }
  throw std::logic_error("activate_columns: unknown activation kind");
}

/// Standardizes columns [first, first + count) of x into the leading
/// columns of out, resized to x.rows() x width, and zeroes the pad columns
/// [count, width). Per element the arithmetic of
/// StandardScaler::transform_row: (x - mean) / std.
template <typename T>
SOCPINN_HOT void standardize_padded(const ScalerStatsT<T>& stats,
                                    const MatrixT<T>& x, std::size_t first,
                                    std::size_t count, std::size_t width,
                                    MatrixT<T>& out) {
  if (stats.means.empty()) {
    throw std::logic_error("ScalerStatsT: empty stats");
  }
  if (x.rows() != stats.means.size()) {
    throw std::invalid_argument("ScalerStatsT::transform_columns_into: "
                                "feature rows");
  }
  // SOCPINN_HOT_ALLOW(resize): warm workspace capacity, layer shapes fixed
  out.resize(x.rows(), width);
  for (std::size_t f = 0; f < x.rows(); ++f) {
    const T mean = stats.means[f];
    const T std = stats.stds[f];
    for (std::size_t j = 0; j < count; ++j) {
      out(f, j) = (x(f, first + j) - mean) / std;
    }
    for (std::size_t j = count; j < width; ++j) out(f, j) = T(0);
  }
}

}  // namespace

template <typename T>
SOCPINN_HOT void dense_forward_columns(const MatrixT<T>& activations,
                           const MatrixT<T>& weights,
                           const MatrixT<T>& bias_row, MatrixT<T>& out) {
  if (activations.rows() != weights.rows()) {
    throw std::invalid_argument(
        "dense_forward_columns<T>: feature dimension mismatch");
  }
  if (bias_row.rows() != 1 || bias_row.cols() != weights.cols()) {
    throw std::invalid_argument(
        "dense_forward_columns<T>: bias shape mismatch");
  }
  if (&out == &activations || &out == &weights || &out == &bias_row) {
    throw std::invalid_argument(
        "dense_forward_columns<T>: out must not alias an input");
  }
  // SOCPINN_HOT_ALLOW(resize): warm workspace capacity, layer shapes fixed
  out.resize(weights.cols(), activations.cols());
  // Runtime-ISA dispatch: every kernel is bitwise identical to the scalar
  // template, so the ISA changes throughput, never results.
  simd::dense_columns<T>(activations.data().data(), weights.data().data(),
                         bias_row.data().data(), out.data().data(),
                         weights.rows(), weights.cols(),
                         activations.cols());
}

template <typename T>
ScalerStatsT<T> ScalerStatsT<T>::from(const StandardScaler& scaler) {
  if (!scaler.fitted()) {
    throw std::logic_error("ScalerStatsT::from: scaler not fitted");
  }
  const auto& m = scaler.means();
  const auto& s = scaler.stds();
  return {{m.begin(), m.end()}, {s.begin(), s.end()}};
}

template <typename T>
SOCPINN_HOT void ScalerStatsT<T>::transform_columns_into(
    const MatrixT<T>& x, MatrixT<T>& out) const {
  standardize_padded(*this, x, 0, x.cols(), x.cols(), out);
}

template <typename T>
MlpSnapshotT<T> MlpSnapshotT<T>::from(const Mlp& mlp) {
  MlpSnapshotT snapshot;
  snapshot.steps_.reserve(mlp.num_layers());
  for (std::size_t i = 0; i < mlp.num_layers(); ++i) {
    const Layer& layer = mlp.layer(i);
    Step step;
    if (const auto* dense = dynamic_cast<const Dense*>(&layer)) {
      step.is_dense = true;
      step.w = MatrixT<T>(dense->weights());
      step.b = MatrixT<T>(dense->bias());
    } else if (const auto* act = dynamic_cast<const Activation*>(&layer)) {
      step.act = act->kind();
    } else {
      throw std::invalid_argument("MlpSnapshotT::from: unsupported layer '" +
                                  layer.name() + "'");
    }
    snapshot.steps_.push_back(std::move(step));
  }
  return snapshot;
}

template <typename T>
SOCPINN_HOT const MatrixT<T>& MlpSnapshotT<T>::infer_columns(
    const MatrixT<T>& input_columns, ForwardWorkspaceT<T>& ws) const {
  const std::size_t n = steps_.size();
  ws.ensure(n + 1);  // buffer n backs the layerless copy
  if (n == 0) {
    MatrixT<T>& out = ws.buffer(n);
    // SOCPINN_HOT_ALLOW(resize): warm workspace capacity, layer shapes fixed
    out.resize(input_columns.rows(), input_columns.cols());
    const auto src = input_columns.data();
    const auto dst = out.data();
    for (std::size_t i = 0; i < src.size(); ++i) dst[i] = src[i];
    return out;
  }
  const MatrixT<T>* x = &input_columns;
  for (std::size_t i = 0; i < n; ++i) {
    MatrixT<T>& out = ws.buffer(i);
    const Step& step = steps_[i];
    if (step.is_dense) {
      if (x->rows() != step.w.rows()) {
        throw std::invalid_argument(
            "MlpSnapshotT::infer_columns: input features " +
            // SOCPINN_HOT_ALLOW(to_string): cold throw path (shape mismatch)
            std::to_string(x->rows()) + " != " +
            // SOCPINN_HOT_ALLOW(to_string): cold throw path (shape mismatch)
            std::to_string(step.w.rows()));
      }
      dense_forward_columns(*x, step.w, step.b, out);
    } else {
      activate_columns(step.act, *x, out);
    }
    x = &out;
  }
  return *x;
}

template <typename T>
SOCPINN_HOT const MatrixT<T>& forward_blocked(const MlpSnapshotT<T>& branch,
                                              const ScalerStatsT<T>& scaler,
                                              const MatrixT<T>& panel,
                                              MatrixT<T>& scaled,
                                              ForwardWorkspaceT<T>& ws) {
  const std::size_t n = panel.cols();
  const std::size_t min_width = n < kColumnsMinBatch ? kColumnsMinBatch : 0;
  // Grow the slot list before taking the gather reference: infer_columns
  // then finds every slot it needs and never reallocates the list.
  const std::size_t gather_slot = branch.num_layers() + 1;
  ws.ensure(gather_slot + 1);
  MatrixT<T>& gathered = ws.buffer(gather_slot);
  std::size_t first = 0;
  do {  // once even for n == 0, so the result is sized (rows x 0)
    const std::size_t w = std::min(kColumnsBlock, n - first);
    standardize_padded(scaler, panel, first, w, std::max(w, min_width),
                       scaled);
    const MatrixT<T>& block = branch.infer_columns(scaled, ws);
    if (first == 0) {
      // SOCPINN_HOT_ALLOW(resize): warm workspace capacity, shard width fixed
      gathered.resize(block.rows(), n);
    }
    for (std::size_t r = 0; r < block.rows(); ++r) {
      for (std::size_t j = 0; j < w; ++j) gathered(r, first + j) = block(r, j);
    }
    first += w;
  } while (first < n);
  return gathered;
}

// The two supported serve precisions: double is the batched forward of
// the f64 engines and of evaluation, bitwise equal to Mlp::infer_sample;
// float is the deployed reduced-precision backend.
template void dense_forward_columns<float>(const MatrixT<float>&,
                                           const MatrixT<float>&,
                                           const MatrixT<float>&,
                                           MatrixT<float>&);
template void dense_forward_columns<double>(const MatrixT<double>&,
                                            const MatrixT<double>&,
                                            const MatrixT<double>&,
                                            MatrixT<double>&);
template struct ScalerStatsT<float>;
template struct ScalerStatsT<double>;
template class MlpSnapshotT<float>;
template class MlpSnapshotT<double>;
template const MatrixT<float>& forward_blocked<float>(
    const MlpSnapshotT<float>&, const ScalerStatsT<float>&,
    const MatrixT<float>&, MatrixT<float>&, ForwardWorkspaceT<float>&);
template const MatrixT<double>& forward_blocked<double>(
    const MlpSnapshotT<double>&, const ScalerStatsT<double>&,
    const MatrixT<double>&, MatrixT<double>&, ForwardWorkspaceT<double>&);

}  // namespace socpinn::nn
