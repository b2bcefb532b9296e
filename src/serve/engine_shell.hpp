#pragma once
/// \file engine_shell.hpp
/// The serving shell FleetEngine and RolloutEngine share: the construction
/// checks, the RCU model handle with its hot-swap, the thread pool, and one
/// per-shard scratch set at the served precision.
///
/// An engine derives from EngineShell<ShardScratch>, naming its per-shard
/// scratch template. Every tick or run then goes through visit_model (or
/// its pooled form for_each_shard): the published snapshot is acquired
/// exactly once at the top, so all shards serve the same model, in-flight
/// work finishes on the snapshot it started with, and a concurrent
/// swap_model lands on the next tick or run whole. The one precision
/// branch of that call hands the body the model's TwoBranchSnapshotT<T>
/// together with the ShardScratch<T> set of the same T.

#include <cstddef>
#include <memory>
#include <utility>
#include <variant>
#include <vector>

#include "core/net_snapshot.hpp"
#include "core/two_branch_net.hpp"
#include "nn/panel_dispatch.hpp"
#include "serve/thread_pool.hpp"

namespace socpinn::serve {

namespace detail {

// The converting and throwing halves of EngineShell, kept out of line
// (engine_shell.cpp) so that no including translation unit inlines their
// allocations.

/// A new snapshot of `net` at `precision`, after checks that throw on the
/// caller's thread: an untrained net (core::require_trained, naming
/// `config`::precision), or a bad SOCPINN_FORCE_ISA value (resolved here
/// rather than by the first forward inside a pool worker).
[[nodiscard]] std::shared_ptr<const core::TwoBranchSnapshot> convert(
    const core::TwoBranchNet& net, core::Precision precision,
    const char* engine, const char* config);

/// Throws std::invalid_argument unless `snapshot` is non-null and at
/// `precision`.
void check_swap(const core::TwoBranchSnapshot* snapshot,
                core::Precision precision, const char* engine,
                const char* config);

}  // namespace detail

template <template <typename> class ShardScratch>
class EngineShell {
 public:
  /// RCU-style model hot-swap: snapshots `net` on the calling thread (the
  /// expensive part — the conversion) and atomically publishes it. Work
  /// already in flight finishes on the old snapshot; the next tick or run
  /// serves the new one. Safe to call from any thread, concurrently with
  /// ticks and runs.
  void swap_model(const core::TwoBranchNet& net) {
    model_.store(detail::convert(net, precision_, engine_, config_));
  }

  /// Hot-swap to a pre-built snapshot (shareable across engines, so a
  /// fleet of engines converts a retrained model once). The snapshot's
  /// precision must match the engine config's `precision`.
  void swap_model(std::shared_ptr<const core::TwoBranchSnapshot> snapshot) {
    detail::check_swap(snapshot.get(), precision_, engine_, config_);
    model_.store(std::move(snapshot));
  }

  /// The currently published model snapshot.
  [[nodiscard]] std::shared_ptr<const core::TwoBranchSnapshot> model() const {
    return model_.load();
  }

  /// The panel-kernel ISA every forward of this process dispatches to
  /// ("scalar", "avx2", "avx512", or "neon" — nn/panel_dispatch.hpp:
  /// detection order AVX-512 > AVX2 > NEON > scalar, overridable via
  /// SOCPINN_FORCE_ISA). Dispatch never changes results — every ISA's f64
  /// kernel is bitwise identical to the scalar reference — so this is a
  /// reporting surface for dashboards and bench logs, not a knob.
  [[nodiscard]] const char* simd_isa() const {
    return nn::simd::isa_name(nn::simd::active_isa());
  }

  [[nodiscard]] std::size_t num_threads() const { return pool_.size(); }

 protected:
  /// One ShardScratch per pool thread, at the engine's precision.
  template <typename T>
  using Scratch = std::vector<ShardScratch<T>>;

  /// Validates `net` and the kernel ISA and converts `net` once into a
  /// snapshot at `precision` (detail::convert), all before the pool spawns
  /// (`threads` workers, 0 = hardware_concurrency). `engine` and `config`
  /// name the engine and its config struct in error messages (string
  /// literals).
  EngineShell(const core::TwoBranchNet& net, core::Precision precision,
              std::size_t threads, const char* engine, const char* config)
      : engine_(engine),
        config_(config),
        precision_(precision),
        model_(detail::convert(net, precision, engine, config)),
        pool_(threads),
        scratch_(precision == core::Precision::kFloat32
                     ? ScratchSet(Scratch<float>(pool_.size()))
                     : ScratchSet(Scratch<double>(pool_.size()))) {}

  ~EngineShell() = default;

  /// Acquires the published model once and calls body(snapshot, scratch)
  /// with its TwoBranchSnapshotT<T> and the Scratch<T> set of the same T.
  template <typename Body>
  void visit_model(Body&& body) {
    const std::shared_ptr<const core::TwoBranchSnapshot> model =
        model_.load();
    model->visit([&]<typename T>(const core::TwoBranchSnapshotT<T>& snap) {
      body(snap, std::get<Scratch<T>>(scratch_));
    });
  }

  /// visit_model over the pool: [0, n) split into contiguous shards, and
  /// body(snapshot, scratch[shard], begin, end) runs once per non-empty
  /// shard. The body enters the engine's shard-execution role itself.
  template <typename Body>
  void for_each_shard(std::size_t n, Body&& body) {
    visit_model([&]<typename T>(const core::TwoBranchSnapshotT<T>& snap,
                                Scratch<T>& scratch) {
      pool_.parallel_for(n, [&](std::size_t shard, std::size_t begin,
                                std::size_t end) {
        body(snap, scratch[shard], begin, end);
      });
    });
  }

 private:
  using ScratchSet = std::variant<Scratch<double>, Scratch<float>>;

  const char* engine_;
  const char* config_;
  core::Precision precision_;
  /// RCU publication point: each tick or run acquires exactly once at its
  /// top, swap_model stores. Snapshots are immutable; old ones die when
  /// the last in-flight user drops its reference.
  core::SnapshotHandle model_;
  ThreadPool pool_;
  ScratchSet scratch_;
};

}  // namespace socpinn::serve
