#pragma once
/// \file inputs.hpp
/// Seeded input generation: nets, per-tick workload row pools, the
/// open-loop telemetry message pool, and ragged rollout lanes. Everything
/// here is set-up work and counts toward setup_s only.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/predictor.hpp"
#include "core/two_branch_net.hpp"
#include "data/windowing.hpp"
#include "nn/matrix.hpp"
#include "serve/rollout_engine.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace socpinn;

/// A net with seeded weights and fitted scaler moments (no training: the
/// benchmark measures serving, not accuracy). Equal seeds give equal nets.
core::TwoBranchNet make_net(std::uint64_t seed);

/// `count` whole-fleet workload matrices (cells x 3: avg I, avg T, N).
std::vector<nn::Matrix> make_row_pool(std::size_t cells, std::size_t count,
                                      util::Rng& rng);

/// cells x 3 Branch-1 sensor rows (V, I, T) for the connect-time seed.
nn::Matrix make_sensors(std::size_t cells, util::Rng& rng);

enum class MsgKind : std::uint8_t { kSensor = 0, kWorkload = 1, kParam = 2 };
inline constexpr int kNumKinds = 3;

/// One open-loop telemetry message. `due` is its offset (ns) inside one
/// cycle of the message pool.
struct Msg {
  std::int64_t due = 0;
  std::uint32_t cell = 0;
  MsgKind kind = MsgKind::kSensor;
  bool finite = true;
  double a = 0.0, b = 0.0, c = 0.0;
};

/// Open-loop rates: per `interval_us`, these fractions of the fleet get a
/// message of each kind, at uniformly random due times; `nonfinite_frac`
/// of all messages carry a NaN or Inf field.
struct IngestConfig {
  double interval_us = 1000.0;
  double sensor_frac = 0.0;
  double workload_frac = 0.0;
  double param_frac = 0.0;
  double nonfinite_frac = 0.0;
  std::size_t pool_intervals = 64;
};

struct MsgPool {
  std::vector<Msg> msgs;  ///< sorted by due
  std::int64_t cycle_ns = 0;
};

MsgPool make_msg_pool(std::size_t cells, const IngestConfig& config,
                      util::Rng& rng);

/// Ragged lanes for RolloutEngine: a quarter physics-only, a quarter
/// closed-loop (re-anchoring every 8 windows), the rest open-loop cascade;
/// lane lengths vary 3x; a quarter of the lanes come from simulated drive
/// cycles, the rest from synthetic discharge traces. Horizon 60 s.
struct RolloutSet {
  std::vector<data::WorkloadSchedule> schedules;
  std::vector<data::ReanchorPlan> plans;
  std::vector<serve::RolloutLane> lanes;  ///< point into the two above
  std::vector<core::Rollout> out;
  std::size_t total_steps = 0;  ///< active lane-steps per run
  std::size_t max_steps = 0;
  std::size_t reanchors = 0;  ///< plan entries per run
  std::size_t physics_lanes = 0;

  RolloutSet() = default;
  RolloutSet(const RolloutSet&) = delete;
  RolloutSet& operator=(const RolloutSet&) = delete;
};

void make_rollout_set(RolloutSet& set, std::size_t lanes, util::Rng& rng);

}  // namespace perfbench
