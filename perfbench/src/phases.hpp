#pragma once
/// \file phases.hpp
/// The measured phases every workload is built from: a fleet session
/// (closed-loop back-to-back ticks, optional open-loop ingest and periodic
/// model swaps) on an in-process FleetEngine or a ShardedFleet, and a
/// closed-loop rollout phase on a RolloutEngine. Each phase checks every
/// output it can against a scalar core reference and counts attempted and
/// failed operations.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/net_snapshot.hpp"
#include "inputs.hpp"
#include "serve/fleet_engine.hpp"
#include "serve/rollout_engine.hpp"
#include "serve/sharded_fleet.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

/// Leading ticks or runs of every phase that are checked but not timed.
inline constexpr std::uint64_t kWarmupOps = 4;
/// Random cells checked per tick (plus as many re-anchoring cells).
inline constexpr std::size_t kSampleCells = 8;
/// Random lanes checked per rollout run.
inline constexpr std::size_t kSampleLanes = 2;
/// Traced ticks or runs between two layer replays.
inline constexpr std::uint64_t kReplayEvery = 8;

/// Operation accounting shared by every phase of a run.
struct Ops {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  void fail(const std::string& what, std::uint64_t n = 1) {
    failed += n;
    if (failures.size() < 8) failures.push_back(what);
  }
};

/// Span names, interned once per run.
struct SpanNames {
  std::uint16_t tick, rollout, step, sharded_step, run_into, swap, publish;
  std::uint16_t dense[4], dense_b1, scaler, predict, estimate, eq1;
  std::uint16_t save_model, load_model;

  explicit SpanNames(Tracer& t);
};

/// Everything a phase needs besides its engine.
struct Env {
  Tracer& tracer;
  const SpanNames& names;
  Ops& ops;
  util::Rng& rng;  ///< sample selection (seeded)
  core::Precision precision = core::Precision::kFloat64;
  /// The two nets that swaps alternate between; nets[0] serves first.
  const core::TwoBranchNet* nets[2] = {nullptr, nullptr};
  int current = 0;  ///< index of the net being served
};

struct ReplayCache;

/// Layer replays recorded under a traced tick: durations (ns) per call.
struct Replays {
  std::shared_ptr<ReplayCache> cache;  ///< weights of the replayed net
  std::vector<double> dense[4], dense_b1, scaler, predict, estimate, eq1;
  std::vector<double> save_model, load_model;
  std::size_t batch = 0;           ///< shard batch the dense layers ran at
  std::size_t estimate_batch = 0;  ///< last drained count replayed
};

struct SessionConfig {
  double seconds = 1.0;
  const MsgPool* ingest = nullptr;  ///< nullptr: no telemetry
  std::size_t swap_every = 0;       ///< ticks between model swaps; 0: none
  std::size_t shard_batch = 0;      ///< cells per shard (replay shape)
  bool record = false;              ///< keep the command log (mirror check)
};

struct SessionOut {
  std::vector<double> tick_ns;           ///< every tick, untraced wall time
  std::vector<double> swap_to_serve_ns;  ///< swap call -> first tick return
  std::vector<double> after_swap_tick_ns;
  /// Per measured tick that applied messages: their median lag.
  std::vector<double> tick_lag_p50_ns;
  stats::OpenLoopRecorder open_loop;
  std::uint64_t ticks = 0;
  std::uint64_t cells_advanced = 0;
  std::uint64_t published[kNumKinds] = {0, 0, 0};
  std::uint64_t superseded = 0;
  std::uint64_t applied = 0;
  std::uint64_t nonfinite_dropped[kNumKinds] = {0, 0, 0};
  std::uint64_t publish_ns = 0;  ///< summed publish-span time (traced)
  std::uint64_t allocs = 0;      ///< parent + worker allocations in ticks
  /// Command log: per tick, the pool indices published before it.
  std::vector<std::vector<std::uint32_t>> log;
  /// One entry per pooled repetition (filled when sessions are pooled).
  std::vector<double> rep_tick_p50_ns, rep_cells_per_s, rep_lag_p50_ns;
};

/// The per-cell state the checks mirror: modes, params, overrides.
struct Mirror {
  std::vector<std::uint8_t> physics;
  std::vector<core::CellParams> params;
  std::vector<std::uint8_t> override_active;
  std::vector<serve::WorkloadOverride> overrides;

  explicit Mirror(std::size_t cells)
      : physics(cells, 0),
        params(cells),
        override_active(cells, 0),
        overrides(cells) {}
};

/// Publishes `m` to the in-process engine's mailbox.
void publish(serve::FleetEngine& engine, const Msg& m);

SessionOut run_session(serve::FleetEngine& engine, Env& env, Mirror& mirror,
                       const std::vector<nn::Matrix>& rows,
                       const SessionConfig& config, Replays& replays);
SessionOut run_session(serve::ShardedFleet& engine, Env& env, Mirror& mirror,
                       const std::vector<nn::Matrix>& rows,
                       const SessionConfig& config, Replays& replays);

struct RolloutPhaseConfig {
  double seconds = 1.0;
  std::size_t swap_every = 0;  ///< runs between model swaps; 0: none
};

struct RolloutOut {
  std::vector<double> run_ns;
  std::vector<double> swap_to_serve_ns;
  std::uint64_t runs = 0;
  std::uint64_t lane_steps = 0;
  std::uint64_t allocs = 0;
  /// One entry per pooled repetition (filled when phases are pooled).
  std::vector<double> rep_run_p50_ns, rep_lane_steps_per_s;
};

RolloutOut run_rollouts(serve::RolloutEngine& engine, Env& env,
                        RolloutSet& set, const RolloutPhaseConfig& config,
                        Replays& replays);

/// Replays one shard's shapes through the nn and core public functions:
/// the Branch-2 standardize and dense layers plus the core forward at
/// `batch`, a Branch-1 forward at `batch` (dense_b1), the core estimate at
/// `drained` rows (skipped when 0) and Eq. 1 over `batch` cells.
void replay_layers(Env& env, std::size_t batch, std::size_t drained,
                   Replays& out);

/// Replays core::save_model / core::load_model of the served net.
void replay_model_io(Env& env, Replays& out);

}  // namespace perfbench
