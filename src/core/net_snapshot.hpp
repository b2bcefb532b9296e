#pragma once
/// \file net_snapshot.hpp
/// Serving snapshots of a trained TwoBranchNet — the only model form the
/// serve engines run.
///
/// TwoBranchSnapshotT<T> captures both branches' weights and scaler
/// moments ONCE (at load), converted to T, and serves them through the
/// feature-major panel kernels. TwoBranchSnapshotT<double> is the only
/// batched f64 forward: the engines serve it and whole-dataset evaluation
/// (core/predictor.hpp) runs it. It reproduces the net's per-sample
/// scalar reference (estimate_soc / predict_soc) bitwise
/// (tests/serve/test_precision.cpp); at float
/// — the paper's embedded-BMS pitch: train in f64, deploy inference in
/// f32 — it tracks f64 within ~1e-5 SoC on the paper's traces (far below
/// the ~1-2% RMSE signal) at roughly twice the panel throughput. The
/// source net is never written, so it may keep training.

#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>

#include "core/two_branch_net.hpp"
#include "nn/panel.hpp"
#include "util/sync.hpp"

namespace socpinn::core {

/// Scalar type T of the TwoBranchSnapshotT<T> a serve engine runs:
/// kFloat64 serves the bitwise-exact f64 snapshot, kFloat32 its f32 twin.
enum class Precision {
  kFloat64,
  kFloat32,
};

/// Caller-owned scratch for allocation-free snapshot inference: per-branch
/// panel buffers plus the standardize staging.
template <typename T>
struct InferenceWorkspaceT {
  nn::ForwardWorkspaceT<T> branch1;
  nn::ForwardWorkspaceT<T> branch2;
  nn::MatrixT<T> scaled;  ///< standardized inputs of the current forward
};

/// Immutable T-precision twin of a trained TwoBranchNet. Feature-major
/// only: the serve engines stage every batch as a panel of exactly its
/// columns, and each branch runs through nn::forward_blocked (padded when
/// thin, column-blocked past nn::kColumnsBlock, bitwise equal to the
/// unpadded, unblocked chain).
template <typename T>
class TwoBranchSnapshotT {
 public:
  /// Converts weights and scaler stats once. Requires fitted scalers
  /// (throws std::logic_error otherwise, like the scalar reference).
  explicit TwoBranchSnapshotT(const TwoBranchNet& net)
      : branch1_(nn::MlpSnapshotT<T>::from(net.branch1())),
        branch2_(nn::MlpSnapshotT<T>::from(net.branch2())),
        scaler1_(nn::ScalerStatsT<T>::from(net.scaler1())),
        scaler2_(nn::ScalerStatsT<T>::from(net.scaler2())) {}

  /// Branch-1 panel: sensors_columns is 3 x n ([V; I; T] rows, batch as
  /// the unit-stride axis) -> 1 x n estimated SoC(t). The returned
  /// reference points into `ws` until its next Branch-1 use.
  const nn::MatrixT<T>& estimate_columns(const nn::MatrixT<T>& sensors_columns,
                                         InferenceWorkspaceT<T>& ws) const {
    return nn::forward_blocked(branch1_, scaler1_, sensors_columns,
                               ws.scaled, ws.branch1);
  }

  /// Branch-2 panel: branch2_columns is 4 x n ([SoC; avg I; avg T; N]) ->
  /// 1 x n SoC(t+N).
  const nn::MatrixT<T>& predict_columns(const nn::MatrixT<T>& branch2_columns,
                                        InferenceWorkspaceT<T>& ws) const {
    return nn::forward_blocked(branch2_, scaler2_, branch2_columns,
                               ws.scaled, ws.branch2);
  }

  [[nodiscard]] const nn::ScalerStatsT<T>& scaler1() const { return scaler1_; }
  [[nodiscard]] const nn::ScalerStatsT<T>& scaler2() const { return scaler2_; }

 private:
  nn::MlpSnapshotT<T> branch1_;
  nn::MlpSnapshotT<T> branch2_;
  nn::ScalerStatsT<T> scaler1_;
  nn::ScalerStatsT<T> scaler2_;
};

using TwoBranchSnapshotF32 = TwoBranchSnapshotT<float>;

/// The one trained-net precondition of serving: a TwoBranchSnapshotT
/// converts the scaler moments at construction, and the multi-process
/// transport serializes them, so the net must have fitted scalers at
/// either precision. Throws std::invalid_argument naming `who`, so the
/// engines fail on the caller's thread at construction, not mid-tick.
inline void require_trained(const TwoBranchNet& net, const std::string& who) {
  if (!net.scaler1().fitted() || !net.scaler2().fitted()) {
    throw std::invalid_argument(
        who +
        " requires a trained net (fitted scalers) at either precision; "
        "fit or load a trained model first");
  }
}

/// Immutable serving model: the unit of RCU-style hot-swap. Holds exactly
/// one TwoBranchSnapshotT — double or float, as chosen at construction —
/// and owns everything a tick needs. The serve engines hold snapshots
/// behind a SnapshotHandle: swap_model() builds a new snapshot off the
/// hot path and publishes it between ticks, in-flight shards finish on
/// the old one (kept alive by the tick's reference), and the caller's net
/// can be retrained or freed the moment the constructor returns.
class TwoBranchSnapshot {
 public:
  /// Converts `net` once at `precision` (requires a trained net — throws
  /// std::invalid_argument otherwise). All the conversion cost lands
  /// here, never on the tick path.
  TwoBranchSnapshot(const TwoBranchNet& net, Precision precision)
      : snapshot_(convert(net, precision)) {}

  [[nodiscard]] Precision precision() const {
    return std::holds_alternative<TwoBranchSnapshotT<float>>(snapshot_)
               ? Precision::kFloat32
               : Precision::kFloat64;
  }

  /// Calls f(snapshot) with the held TwoBranchSnapshotT<double> or
  /// TwoBranchSnapshotT<float> — the serve engines' one precision branch
  /// per tick or run. Const inference with caller-owned workspaces is
  /// thread-safe; the snapshot is never mutated.
  template <typename F>
  decltype(auto) visit(F&& f) const {
    return std::visit(std::forward<F>(f), snapshot_);
  }

 private:
  using Held =
      std::variant<TwoBranchSnapshotT<double>, TwoBranchSnapshotT<float>>;

  static Held convert(const TwoBranchNet& net, Precision precision) {
    require_trained(net, "TwoBranchSnapshot");
    if (precision == Precision::kFloat32) {
      return Held(std::in_place_type<TwoBranchSnapshotT<float>>, net);
    }
    return Held(std::in_place_type<TwoBranchSnapshotT<double>>, net);
  }

  Held snapshot_;
};

/// Atomically swappable owner of the current serving snapshot — the RCU
/// publication point of the serve engines. load() hands out a shared_ptr
/// copy (a tick/run holds it for its whole duration, so a swapped-out
/// model stays alive until the last in-flight user drops it); store()
/// publishes a new snapshot for the NEXT load. Internally a mutex guards
/// only the pointer copy/swap — never inference, never conversion — so
/// the critical section is a few instructions per tick, amortized over a
/// whole sharded batch. (std::atomic<std::shared_ptr> is the same thing
/// as a library spinlock, but current libstdc++ lacks the TSan annotations
/// for it; an explicit mutex keeps the whole serve layer provable by the
/// thread sanitizer, which this repo runs in CI. The util::Mutex wrapper
/// additionally makes the guard visible to clang's -Wthread-safety, so an
/// unlocked touch of snapshot_ is a compile error there, not just a
/// hoped-for TSan catch.)
class SnapshotHandle {
 public:
  explicit SnapshotHandle(std::shared_ptr<const TwoBranchSnapshot> snapshot)
      : snapshot_(std::move(snapshot)) {}

  SnapshotHandle(const SnapshotHandle&) = delete;
  SnapshotHandle& operator=(const SnapshotHandle&) = delete;

  [[nodiscard]] std::shared_ptr<const TwoBranchSnapshot> load() const
      SOCPINN_EXCLUDES(mu_) {
    const util::MutexLock lock(mu_);
    return snapshot_;
  }

  void store(std::shared_ptr<const TwoBranchSnapshot> next)
      SOCPINN_EXCLUDES(mu_) {
    // Swap inside the lock, release the old reference outside it: if this
    // was the last reference to the replaced model, its destructor must
    // not run in the critical section.
    std::shared_ptr<const TwoBranchSnapshot> old;
    {
      const util::MutexLock lock(mu_);
      old = std::move(snapshot_);
      snapshot_ = std::move(next);
    }
  }

 private:
  mutable util::Mutex mu_;
  std::shared_ptr<const TwoBranchSnapshot> snapshot_
      SOCPINN_GUARDED_BY(mu_);
};

}  // namespace socpinn::core
