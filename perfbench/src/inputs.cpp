#include "inputs.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "battery/cell.hpp"
#include "battery/chemistry.hpp"
#include "data/drive_cycles.hpp"
#include "data/trace.hpp"

namespace perfbench {

core::TwoBranchNet make_net(std::uint64_t seed) {
  core::TwoBranchNet net({}, seed);
  net.scaler1() =
      nn::StandardScaler::from_moments({3.7, -1.5, 25.0}, {0.3, 2.0, 8.0});
  net.scaler2() = nn::StandardScaler::from_moments({0.5, -1.5, 25.0, 45.0},
                                                   {0.25, 2.0, 8.0, 18.0});
  return net;
}

std::vector<nn::Matrix> make_row_pool(std::size_t cells, std::size_t count,
                                      util::Rng& rng) {
  std::vector<nn::Matrix> pool;
  pool.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    nn::Matrix m(cells, 3);
    for (std::size_t r = 0; r < cells; ++r) {
      m(r, 0) = rng.uniform(-6.0, 3.0);
      m(r, 1) = rng.uniform(-5.0, 45.0);
      m(r, 2) = rng.uniform(10.0, 600.0);
    }
    pool.push_back(std::move(m));
  }
  return pool;
}

nn::Matrix make_sensors(std::size_t cells, util::Rng& rng) {
  nn::Matrix m(cells, 3);
  for (std::size_t r = 0; r < cells; ++r) {
    m(r, 0) = rng.uniform(2.8, 4.2);
    m(r, 1) = rng.uniform(-6.0, 3.0);
    m(r, 2) = rng.uniform(-5.0, 45.0);
  }
  return m;
}

MsgPool make_msg_pool(std::size_t cells, const IngestConfig& config,
                      util::Rng& rng) {
  MsgPool pool;
  const auto interval_ns =
      static_cast<std::int64_t>(config.interval_us * 1000.0);
  pool.cycle_ns = interval_ns * static_cast<std::int64_t>(config.pool_intervals);
  const double fracs[kNumKinds] = {config.sensor_frac, config.workload_frac,
                                   config.param_frac};
  std::size_t per_interval = 0;
  for (const double f : fracs) {
    per_interval += static_cast<std::size_t>(
        std::llround(f * static_cast<double>(cells)));
  }
  pool.msgs.reserve(per_interval * config.pool_intervals);
  for (std::size_t iv = 0; iv < config.pool_intervals; ++iv) {
    for (int kind = 0; kind < kNumKinds; ++kind) {
      const auto n = static_cast<std::size_t>(
          std::llround(fracs[kind] * static_cast<double>(cells)));
      for (std::size_t i = 0; i < n; ++i) {
        Msg m;
        m.due = static_cast<std::int64_t>(iv) * interval_ns +
                static_cast<std::int64_t>(rng.uniform() *
                                          static_cast<double>(interval_ns));
        m.cell = static_cast<std::uint32_t>(rng.index(cells));
        m.kind = static_cast<MsgKind>(kind);
        switch (m.kind) {
          case MsgKind::kSensor:
            m.a = rng.uniform(2.8, 4.2);
            m.b = rng.uniform(-6.0, 3.0);
            m.c = rng.uniform(-5.0, 45.0);
            break;
          case MsgKind::kWorkload:
            m.a = rng.uniform(-6.0, 3.0);
            m.b = rng.uniform(-5.0, 45.0);
            m.c = rng.uniform(10.0, 600.0);
            break;
          case MsgKind::kParam:
            m.a = rng.uniform(2.0, 3.5);
            m.b = rng.uniform(0.95, 1.0);
            m.c = 0.0;
            break;
        }
        if (rng.uniform() < config.nonfinite_frac) {
          m.finite = false;
          const double bad = rng.uniform() < 0.5
                                 ? std::numeric_limits<double>::quiet_NaN()
                                 : std::numeric_limits<double>::infinity();
          double* fields[3] = {&m.a, &m.b, &m.c};
          *fields[rng.index(3)] = bad;
        }
        pool.msgs.push_back(m);
      }
    }
  }
  std::stable_sort(pool.msgs.begin(), pool.msgs.end(),
                   [](const Msg& x, const Msg& y) { return x.due < y.due; });
  return pool;
}

namespace {

constexpr double kHorizonS = 60.0;
constexpr std::size_t kMinSteps = 60;
constexpr std::size_t kMaxSteps = 180;

/// Synthetic discharge trace sampled every 30 s (two samples per window).
data::Trace synthetic_trace(std::size_t samples, util::Rng& rng) {
  data::Trace trace;
  trace.reserve(samples);
  double soc = rng.uniform(0.85, 1.0);
  const double phase = rng.uniform(0.0, 6.28);
  for (std::size_t i = 0; i < samples; ++i) {
    const auto x = static_cast<double>(i);
    data::TracePoint p;
    p.time_s = 30.0 * x;
    p.current = -2.0 + 1.2 * std::sin(0.13 * x + phase) +
                rng.uniform(-0.2, 0.2);
    p.temp_c = 25.0 + 4.0 * std::sin(0.02 * x + phase);
    p.voltage = 3.0 + 1.2 * soc + rng.uniform(-0.01, 0.01);
    p.soc = soc;
    trace.push_back(p);
    soc = std::max(0.0, soc - 0.9 / static_cast<double>(samples));
  }
  return trace;
}

/// One simulated drive-cycle discharge per cycle kind, sampled every 30 s
/// (the drive-cycle current is averaged over each sample period).
std::vector<data::Trace> drive_cycle_traces(util::Rng& rng) {
  const battery::CellParams cell_params =
      battery::cell_params(battery::Chemistry::kLgHg2);
  std::vector<data::Trace> traces;
  for (const data::DriveCycleKind kind : data::all_drive_cycles()) {
    const std::vector<double> speeds = data::synth_speed_profile(kind, rng);
    const std::vector<double> current = data::speed_to_cell_current(
        speeds, cell_params, data::VehicleParams{}, 30.0);
    battery::Cell cell(cell_params, /*initial_soc=*/1.0, rng.uniform(10, 35));
    traces.push_back(data::run_current_profile(
        cell, current, 30.0, /*repeat_until_empty=*/true,
        30.0 * static_cast<double>(2 * kMaxSteps + 2)));
  }
  return traces;
}

}  // namespace

void make_rollout_set(RolloutSet& set, std::size_t lanes, util::Rng& rng) {
  const std::vector<data::Trace> drive = drive_cycle_traces(rng);
  set.schedules.clear();
  set.plans.clear();
  set.schedules.reserve(lanes);
  set.plans.reserve(lanes);
  std::vector<serve::LaneKind> kinds(lanes);
  std::vector<bool> closed(lanes, false);
  for (std::size_t i = 0; i < lanes; ++i) {
    kinds[i] = i % 4 == 0 ? serve::LaneKind::kPhysicsOnly
                          : serve::LaneKind::kCascade;
    closed[i] = i % 4 == 1;
  }
  for (std::size_t i = lanes; i > 1; --i) {  // seeded shuffle of lane roles
    const std::size_t j = rng.index(i);
    std::swap(kinds[i - 1], kinds[j]);
    const bool t = closed[i - 1];
    closed[i - 1] = closed[j];
    closed[j] = t;
  }
  // Lane lengths are evenly spaced over [kMinSteps, kMaxSteps] and dealt
  // in seeded order, so every seed runs the same number of lane-steps.
  std::vector<std::size_t> lengths(lanes);
  for (std::size_t i = 0; i < lanes; ++i) {
    lengths[i] = kMinSteps + (kMaxSteps - kMinSteps) * i /
                                 std::max<std::size_t>(lanes - 1, 1);
  }
  for (std::size_t i = lanes; i > 1; --i) {
    std::swap(lengths[i - 1], lengths[rng.index(i)]);
  }
  std::vector<data::Trace> traces;
  traces.reserve(lanes);
  for (std::size_t i = 0; i < lanes; ++i) {
    const std::size_t samples = 2 * lengths[i] + 1;
    const data::Trace& base = drive[i % drive.size()];
    if (i % 4 == 3 && base.size() >= samples) {
      traces.push_back(base.slice(0, samples));
    } else {
      traces.push_back(synthetic_trace(samples, rng));
    }
  }
  set.total_steps = 0;
  set.max_steps = 0;
  set.reanchors = 0;
  set.physics_lanes = 0;
  for (std::size_t i = 0; i < lanes; ++i) {
    set.schedules.push_back(
        data::build_workload_schedule(traces[i], kHorizonS));
    set.plans.push_back(closed[i] ? data::build_reanchor_plan(traces[i],
                                                              kHorizonS, 8)
                                  : data::ReanchorPlan{});
  }
  set.lanes.assign(lanes, serve::RolloutLane{});
  for (std::size_t i = 0; i < lanes; ++i) {
    serve::RolloutLane& lane = set.lanes[i];
    lane.schedule = &set.schedules[i];
    lane.kind = kinds[i];
    if (kinds[i] == serve::LaneKind::kPhysicsOnly) {
      lane.params = {.capacity_ah = rng.uniform(2.5, 3.5),
                     .coulombic_eff = rng.uniform(0.97, 1.0)};
      ++set.physics_lanes;
    }
    if (closed[i]) {
      lane.reanchor = &set.plans[i];
      set.reanchors += set.plans[i].size();
    }
    set.total_steps += set.schedules[i].num_steps();
    set.max_steps = std::max(set.max_steps, set.schedules[i].num_steps());
  }
  set.out.assign(lanes, core::Rollout{});
}

}  // namespace perfbench
