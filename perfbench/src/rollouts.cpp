/// The rollout phase: RolloutEngine::run_into over the ragged lane set in
/// a closed loop, optional model swaps between runs, sampled lanes checked
/// against a scalar core walk of the same schedule.

#include <cmath>
#include <string>

#include "alloc_counter.hpp"
#include "core/cell_params.hpp"
#include "phases.hpp"
#include "util/math.hpp"

namespace perfbench {

namespace {

/// Scalar reference trajectory of one lane: Branch-1 seed, re-anchors
/// before their window, then Branch 2 or Eq. 1 per window.
std::vector<double> reference_lane(const core::TwoBranchNet& net,
                                   const serve::RolloutLane& lane,
                                   core::InferenceWorkspace& ws) {
  const data::WorkloadSchedule& s = *lane.schedule;
  std::vector<double> soc_out;
  double soc = util::clamp01(net.estimate_soc(s.voltage0, s.current0, s.temp0, ws));
  soc_out.push_back(soc);
  std::size_t pos = 0;
  for (std::size_t step = 0; step < s.num_steps(); ++step) {
    const data::ReanchorPlan* plan = lane.reanchor;
    if (plan != nullptr && pos < plan->size() && plan->steps[pos] == step) {
      soc = util::clamp01(net.estimate_soc(plan->sensors(pos, 0),
                                           plan->sensors(pos, 1),
                                           plan->sensors(pos, 2), ws));
      soc_out.back() = soc;
      ++pos;
    }
    if (lane.kind == serve::LaneKind::kPhysicsOnly) {
      soc = core::eq1_predict_clamped(soc, s.workload(step, 0),
                                      s.workload(step, 2), lane.params);
    } else {
      soc = util::clamp01(net.predict_soc(soc, s.workload(step, 0),
                                          s.workload(step, 1),
                                          s.workload(step, 2), ws));
    }
    soc_out.push_back(soc);
  }
  return soc_out;
}

}  // namespace

RolloutOut run_rollouts(serve::RolloutEngine& engine, Env& env,
                        RolloutSet& set, const RolloutPhaseConfig& config,
                        Replays& replays) {
  RolloutOut out;
  Tracer& tr = env.tracer;
  Ops& ops = env.ops;
  const bool f32 =
      engine.config().precision == core::Precision::kFloat32;
  core::InferenceWorkspace ws;
  const std::size_t lanes = set.lanes.size();
  const std::size_t threads = engine.num_threads();
  const std::size_t cascade_per_shard =
      (lanes - set.physics_lanes + threads - 1) / threads;
  std::size_t closed = 0;
  for (const serve::RolloutLane& l : set.lanes) closed += l.reanchor != nullptr;
  const std::size_t reanchor_per_shard = (closed + threads - 1) / threads;

  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(config.seconds * 1e9);
  for (std::uint64_t r = 0;; ++r) {
    if (now_ns() >= deadline) break;
    tr.begin_tick();
    const Tracer::Scope root(tr, env.names.rollout);
    bool swapped = false;
    std::int64_t t_swap = 0;
    if (config.swap_every > 0 && r > 0 && r % config.swap_every == 0) {
      env.current ^= 1;
      t_swap = now_ns();
      try {
        const Tracer::Scope s(tr, env.names.swap);
        engine.swap_model(*env.nets[env.current]);
      } catch (const std::exception& e) {
        ops.fail(std::string("swap_model threw: ") + e.what());
      }
      swapped = true;
      ++ops.attempted;
    }
    const std::size_t allocs0 = alloc_count();
    const std::int64_t t0 = now_ns();
    try {
      const Tracer::Scope s(tr, env.names.run_into);
      engine.run_into(set.lanes, set.out);
    } catch (const std::exception& e) {
      ops.fail(std::string("run_into threw: ") + e.what());
      ++ops.attempted;
      break;
    }
    const std::int64_t t1 = now_ns();
    // The first runs of a phase warm caches and are checked, not timed.
    if (r >= kWarmupOps) {
      out.allocs += alloc_count() - allocs0;
      out.run_ns.push_back(static_cast<double>(t1 - t0));
      ++out.runs;
      out.lane_steps += set.total_steps;
    }
    if (swapped) out.swap_to_serve_ns.push_back(static_cast<double>(t1 - t_swap));
    ++ops.attempted;

    const core::TwoBranchNet& net = *env.nets[env.current];
    for (std::size_t k = 0; k < kSampleLanes; ++k) {
      const std::size_t i = env.rng.index(lanes);
      const std::vector<double> want = reference_lane(net, set.lanes[i], ws);
      const std::vector<double>& got = set.out[i].soc;
      bool ok = got.size() == want.size();
      std::size_t s = 0;
      for (; ok && s < got.size(); ++s) {
        ok = f32 ? std::fabs(got[s] - want[s]) <= 1e-4 : got[s] == want[s];
      }
      if (!ok) {
        ops.fail("rollout lane " + std::to_string(i) + " run " +
                 std::to_string(r) + " differs from the scalar reference" +
                 " (kind " +
                 std::to_string(static_cast<int>(set.lanes[i].kind)) +
                 ", step " + std::to_string(s) + " of " +
                 std::to_string(got.size()) + "/" +
                 std::to_string(want.size()) + ")");
      }
    }
    if (tr.enabled()) {
      if (r % kReplayEvery == 0) {
        replay_layers(env, cascade_per_shard, reanchor_per_shard, replays);
      }
      if (swapped) replay_model_io(env, replays);
    }
  }
  return out;
}

}  // namespace perfbench
