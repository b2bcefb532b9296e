/// The contract of the f32 serve backend (Precision::kFloat32):
///
///  * the f64 path is the default and stays bitwise what it was — the f32
///    backend is opt-in per engine and never touches the source net;
///  * the f32 rollout/fleet results track f64 within 1e-4 SoC on LG-like
///    and Sandia-like test traces (far below the paper's ~1-2% RMSE), the
///    committed tolerance of the reduced-precision backend;
///  * physics-only lanes are identical in both precisions (Eq. 1 always
///    runs in f64);
///  * f32 results are bitwise invariant to thread count, same shard
///    contract as f64 (per-column panel results are independent of the
///    gathered batch width);
///  * the TwoBranchSnapshotT<double> instantiation reproduces the net's
///    per-sample scalar reference bitwise, pinning the snapshot to it;
///  * the snapshot's column-blocked forward (nn::kColumnsBlock) is bitwise
///    the unblocked chain at every width, at both precisions, and keeps
///    every layer panel block-sized;
///  * the forward pads a panel thinner than nn::kColumnsMinBatch itself,
///    so callers stage exactly their columns.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/net_snapshot.hpp"
#include "data/lg.hpp"
#include "data/sandia.hpp"
#include "serve/fleet_engine.hpp"
#include "serve/rollout_engine.hpp"
#include "support/fitted_net.hpp"
#include "support/rollout_reference.hpp"
#include "util/rng.hpp"

namespace socpinn::serve {
namespace {

using testing::random_sensors;
using testing::random_workload;

void expect_soc_close(const core::Rollout& f32, const core::Rollout& f64,
                      double tol, const char* what) {
  ASSERT_EQ(f32.soc.size(), f64.soc.size()) << what;
  for (std::size_t i = 0; i < f32.soc.size(); ++i) {
    EXPECT_NEAR(f32.soc[i], f64.soc[i], tol) << what << " step " << i;
  }
}

/// Feature-major copy of a row-major batch (rows -> columns) at T.
template <typename T>
nn::MatrixT<T> to_panel(const nn::Matrix& rows) {
  return nn::MatrixT<T>(nn::transpose(rows));
}

/// Panel widths around the vectorized tile (32) and the serve forward's
/// column block (nn::kColumnsBlock = 256): one block, the ragged and exact
/// block edges, and multi-block panels with a ragged last block.
constexpr std::size_t kParityWidths[] = {1,   31,  32,  33,  64,  70,  255, 256,
                                         257, 511, 512, 513, 1000};

TEST(SnapshotParity, DoubleSnapshotMatchesNetPanelsBitwise) {
  static_assert(nn::kColumnsBlock == 256, "widths bracket the 256 block");
  const core::TwoBranchNet net = testing::make_fitted_net(61);
  const core::TwoBranchSnapshotT<double> snapshot(net);
  util::Rng rng(3);
  // One workspace per side across all widths, so blocked and unblocked
  // forwards reuse each other's buffers as a serving shard's would.
  core::InferenceWorkspace ws;
  core::InferenceWorkspaceT<double> wst;
  for (const std::size_t n : kParityWidths) {
    // Branch 2: compare against the scalar reference over the same panel.
    const nn::Matrix b2_rows = testing::random_branch2(n, rng);
    const nn::Matrix& expected =
        net.predict_batch_columns(nn::transpose(b2_rows), ws);
    const nn::MatrixT<double>& got =
        snapshot.predict_columns(to_panel<double>(b2_rows), wst);
    ASSERT_EQ(got.rows(), 1u) << "width " << n;
    ASSERT_EQ(got.cols(), expected.cols()) << "width " << n;
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_EQ(got(0, j), expected(0, j)) << "width " << n << " b2 col " << j;
    }

    // Branch 1: the scalar reference over the row-major batch.
    const nn::Matrix sensors = random_sensors(n, rng);
    const nn::Matrix& est = net.estimate_batch(sensors, ws);
    const nn::MatrixT<double>& est_got =
        snapshot.estimate_columns(to_panel<double>(sensors), wst);
    ASSERT_EQ(est_got.cols(), n) << "width " << n;
    for (std::size_t r = 0; r < n; ++r) {
      EXPECT_EQ(est_got(0, r), est(r, 0)) << "width " << n << " b1 row " << r;
    }
  }
}

TEST(SnapshotParity, FloatSnapshotMatchesUnblockedChainBitwise) {
  // The f32 twin has no f64 reference to equal, so pin its column-blocked
  // forward to the unblocked chain: whole-panel standardize, then one
  // MlpSnapshotT pass over the full width.
  const core::TwoBranchNet net = testing::make_fitted_net(61);
  const core::TwoBranchSnapshotT<float> snapshot(net);
  const auto mlp1 = nn::MlpSnapshotT<float>::from(net.branch1());
  const auto mlp2 = nn::MlpSnapshotT<float>::from(net.branch2());
  util::Rng rng(5);
  core::InferenceWorkspaceT<float> wst;
  nn::ForwardWorkspaceT<float> ref_ws;
  nn::MatrixT<float> ref_scaled;
  for (const std::size_t n : kParityWidths) {
    const nn::MatrixT<float> b2 =
        to_panel<float>(testing::random_branch2(n, rng));
    snapshot.scaler2().transform_columns_into(b2, ref_scaled);
    const nn::MatrixT<float>& want2 = mlp2.infer_columns(ref_scaled, ref_ws);
    const nn::MatrixT<float>& got2 = snapshot.predict_columns(b2, wst);
    ASSERT_EQ(got2.rows(), want2.rows()) << "width " << n;
    ASSERT_EQ(got2.cols(), want2.cols()) << "width " << n;
    EXPECT_EQ(std::memcmp(got2.data().data(), want2.data().data(),
                          want2.size() * sizeof(float)),
              0)
        << "branch2 width " << n;

    const nn::MatrixT<float> sensors = to_panel<float>(random_sensors(n, rng));
    snapshot.scaler1().transform_columns_into(sensors, ref_scaled);
    const nn::MatrixT<float>& want1 = mlp1.infer_columns(ref_scaled, ref_ws);
    const nn::MatrixT<float>& got1 = snapshot.estimate_columns(sensors, wst);
    ASSERT_EQ(got1.cols(), want1.cols()) << "width " << n;
    EXPECT_EQ(std::memcmp(got1.data().data(), want1.data().data(),
                          want1.size() * sizeof(float)),
              0)
        << "branch1 width " << n;
  }
}

/// After a fleet_bulk-wide forward, every layer panel of both branches and
/// the standardize staging must hold at most rows x nn::kColumnsBlock
/// elements — the cache footprint the column blocking exists for. A
/// regression to shard-wide panels fails here, not only in the benchmark.
template <typename T>
void expect_block_sized_panels(const core::TwoBranchNet& net) {
  constexpr std::size_t kShard = 16384;
  const core::TwoBranchSnapshotT<T> snapshot(net);
  util::Rng rng(7);
  core::InferenceWorkspaceT<T> ws;
  const nn::MatrixT<T> b2 = to_panel<T>(testing::random_branch2(kShard, rng));
  EXPECT_EQ(snapshot.predict_columns(b2, ws).cols(), kShard);
  const nn::MatrixT<T> sensors = to_panel<T>(random_sensors(kShard, rng));
  EXPECT_EQ(snapshot.estimate_columns(sensors, ws).cols(), kShard);

  EXPECT_LE(ws.scaled.cols(), nn::kColumnsBlock);
  const std::pair<const nn::Mlp*, nn::ForwardWorkspaceT<T>*> branches[] = {
      {&net.branch1(), &ws.branch1}, {&net.branch2(), &ws.branch2}};
  for (const auto& [mlp, fw] : branches) {
    ASSERT_GE(fw->num_buffers(), mlp->num_layers());
    for (std::size_t i = 0; i < mlp->num_layers(); ++i) {
      EXPECT_LE(fw->buffer(i).cols(), nn::kColumnsBlock)
          << "layer " << i << " holds a shard-wide panel";
    }
  }
}

TEST(SnapshotParity, ColumnBlockedForwardKeepsLayerPanelsBlockSized) {
  const core::TwoBranchNet net = testing::make_fitted_net(61);
  expect_block_sized_panels<double>(net);
  expect_block_sized_panels<float>(net);
}

/// `panel` with zero columns appended up to nn::kColumnsMinBatch, as a
/// caller would pad it.
template <typename T>
nn::MatrixT<T> caller_padded(const nn::MatrixT<T>& panel) {
  nn::MatrixT<T> padded(panel.rows(), nn::kColumnsMinBatch);
  for (std::size_t f = 0; f < panel.rows(); ++f) {
    for (std::size_t j = 0; j < panel.cols(); ++j) padded(f, j) = panel(f, j);
  }
  return padded;
}

/// Thin panels are padded by the forward itself: a caller stages exactly
/// its n < nn::kColumnsMinBatch columns, every layer still runs the full
/// tile width (the vectorized kernel, not its scalar remainder), and the
/// n real results are those of the reference (f64) or of the caller-padded
/// panel (f32, byte for byte).
template <typename T>
void expect_forward_pads_thin_panels(const core::TwoBranchNet& net) {
  const core::TwoBranchSnapshotT<T> snapshot(net);
  util::Rng rng(11);
  core::InferenceWorkspace ref_ws;
  for (const std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{31}}) {
    const nn::Matrix b2_rows = testing::random_branch2(n, rng);
    const nn::Matrix sensors = random_sensors(n, rng);
    core::InferenceWorkspaceT<T> ws;
    // Copies: a result points into ws only until its branch runs again.
    const nn::MatrixT<T> pred =
        snapshot.predict_columns(to_panel<T>(b2_rows), ws);
    const nn::MatrixT<T> est =
        snapshot.estimate_columns(to_panel<T>(sensors), ws);
    ASSERT_EQ(pred.cols(), n);
    ASSERT_EQ(est.cols(), n);
    const std::pair<const nn::Mlp*, nn::ForwardWorkspaceT<T>*> branches[] = {
        {&net.branch1(), &ws.branch1}, {&net.branch2(), &ws.branch2}};
    for (const auto& [mlp, fw] : branches) {
      ASSERT_GE(fw->num_buffers(), mlp->num_layers());
      for (std::size_t i = 0; i < mlp->num_layers(); ++i) {
        EXPECT_EQ(fw->buffer(i).cols(), nn::kColumnsMinBatch)
            << "width " << n << " layer " << i;
      }
    }

    if constexpr (std::is_same_v<T, double>) {
      const nn::Matrix& want2 =
          net.predict_batch_columns(nn::transpose(b2_rows), ref_ws);
      for (std::size_t j = 0; j < n; ++j) {
        EXPECT_EQ(pred(0, j), want2(0, j)) << "width " << n << " b2 col " << j;
      }
      const nn::Matrix& want1 = net.estimate_batch(sensors, ref_ws);
      for (std::size_t j = 0; j < n; ++j) {
        EXPECT_EQ(est(0, j), want1(j, 0)) << "width " << n << " b1 col " << j;
      }
    } else {
      core::InferenceWorkspaceT<T> pad_ws;
      const nn::MatrixT<T>& want2 = snapshot.predict_columns(
          caller_padded(to_panel<T>(b2_rows)), pad_ws);
      EXPECT_EQ(std::memcmp(pred.data().data(), want2.data().data(),
                            n * sizeof(T)),
                0)
          << "branch2 width " << n;
      const nn::MatrixT<T>& want1 = snapshot.estimate_columns(
          caller_padded(to_panel<T>(sensors)), pad_ws);
      EXPECT_EQ(std::memcmp(est.data().data(), want1.data().data(),
                            n * sizeof(T)),
                0)
          << "branch1 width " << n;
    }
  }
}

TEST(SnapshotParity, ForwardPadsThinPanelsToTheTile) {
  const core::TwoBranchNet net = testing::make_fitted_net(61);
  expect_forward_pads_thin_panels<double>(net);
  expect_forward_pads_thin_panels<float>(net);
}

TEST(SnapshotParity, RequiresFittedScalers) {
  const core::TwoBranchNet unfitted({}, 5);  // scalers never fitted
  EXPECT_THROW(core::TwoBranchSnapshotF32 snapshot(unfitted),
               std::logic_error);
  EXPECT_THROW(core::TwoBranchSnapshot(unfitted, core::Precision::kFloat32),
               std::invalid_argument);
  // The f64 snapshot converts the scaler moments too, so it demands a
  // trained net at construction exactly like the f32 one.
  EXPECT_THROW(core::TwoBranchSnapshot(unfitted, core::Precision::kFloat64),
               std::invalid_argument);
}

TEST(SnapshotParity, UntrainedF32EngineFailsAtConstructionNamingTheKnob) {
  // Regression contract: requesting the f32 backend with an untrained net
  // must fail at engine construction with std::invalid_argument naming
  // the precision knob — not wherever TwoBranchSnapshotF32 happened to
  // blow up first (a logic_error from deep inside the scaler conversion).
  const core::TwoBranchNet unfitted({}, 5);

  try {
    RolloutConfig config;
    config.precision = core::Precision::kFloat32;
    RolloutEngine engine(unfitted, config);
    FAIL() << "RolloutEngine accepted an untrained net at kFloat32";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("RolloutConfig::precision"),
              std::string::npos)
        << "message does not name the knob: " << e.what();
  }

  try {
    FleetConfig config;
    config.precision = core::Precision::kFloat32;
    FleetEngine engine(unfitted, 4, config);
    FAIL() << "FleetEngine accepted an untrained net at kFloat32";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("FleetConfig::precision"),
              std::string::npos)
        << "message does not name the knob: " << e.what();
  }

  // The f64 default holds the same precondition, at construction on the
  // caller's thread rather than from the first tick.
  EXPECT_THROW(FleetEngine(unfitted, 4, FleetConfig{.threads = 1}),
               std::invalid_argument);
}

TEST(RolloutPrecision, F32TracksF64OnLgTestTraces) {
  const core::TwoBranchNet net = testing::make_fitted_net(23);
  const data::LgDataset dataset = data::generate_lg(data::LgConfig{});

  std::vector<data::WorkloadSchedule> schedules;
  for (const auto& run : dataset.test_runs) {
    schedules.push_back(data::build_workload_schedule(run.trace, 30.0));
  }
  RolloutEngine f64(net, {.threads = 2});
  RolloutEngine f32(net, {.threads = 2,
                          .precision = core::Precision::kFloat32});
  const std::vector<core::Rollout> base = f64.run(schedules);
  const std::vector<core::Rollout> reduced = f32.run(schedules);
  ASSERT_EQ(reduced.size(), base.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    expect_soc_close(reduced[i], base[i], 1e-4,
                     dataset.test_runs[i].cycle_name.c_str());
  }
}

TEST(RolloutPrecision, F32TracksF64OnSandiaTestTracesAndPhysicsIsExact) {
  const core::TwoBranchNet net = testing::make_fitted_net(29);
  data::SandiaConfig config;
  config.chemistries = {battery::Chemistry::kNmc};
  config.ambient_temps_c = {25.0};
  const data::SandiaDataset dataset = data::generate_sandia(config);

  std::vector<data::WorkloadSchedule> schedules;
  for (const auto& run : dataset.test_runs) {
    schedules.push_back(data::build_workload_schedule(run.trace, 240.0));
  }
  std::vector<RolloutLane> lanes;
  for (std::size_t i = 0; i < schedules.size(); ++i) {
    lanes.push_back({&schedules[i], LaneKind::kCascade, 0.0});
    lanes.push_back({&schedules[i], LaneKind::kPhysicsOnly, {.capacity_ah = 3.0}});
  }
  RolloutEngine f64(net, {.threads = 2});
  RolloutEngine f32(net, {.threads = 2,
                          .precision = core::Precision::kFloat32});
  const std::vector<core::Rollout> base = f64.run(lanes);
  const std::vector<core::Rollout> reduced = f32.run(lanes);
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    if (lanes[i].kind == LaneKind::kPhysicsOnly) {
      // Physics lanes never narrow: Eq. 1 runs in f64 either way, and the
      // Branch-1 seed is the only f32 step — but the seed feeds the NN
      // cascade only after clamping, so compare step by step with the f32
      // seed tolerance.
      ASSERT_EQ(reduced[i].soc.size(), base[i].soc.size());
      for (std::size_t s = 0; s < base[i].soc.size(); ++s) {
        EXPECT_NEAR(reduced[i].soc[s], base[i].soc[s], 1e-4)
            << "physics lane " << i << " step " << s;
      }
    } else {
      expect_soc_close(reduced[i], base[i], 1e-4, "sandia cascade");
    }
  }
}

TEST(RolloutPrecision, F32ResultsInvariantToThreadCount) {
  const core::TwoBranchNet net = testing::make_fitted_net(31);
  const std::vector<data::Trace> fleet = testing::synthetic_fleet(53, 41);
  const std::vector<data::WorkloadSchedule> schedules =
      data::build_workload_schedules(fleet, 30.0);

  RolloutEngine single(net, {.threads = 1,
                             .precision = core::Precision::kFloat32});
  const std::vector<core::Rollout> base = single.run(schedules);
  for (const std::size_t threads :
       {std::size_t{2}, std::size_t{4}, std::size_t{7}}) {
    RolloutEngine engine(net, {.threads = threads,
                               .precision = core::Precision::kFloat32});
    const std::vector<core::Rollout> multi = engine.run(schedules);
    ASSERT_EQ(multi.size(), base.size());
    for (std::size_t i = 0; i < base.size(); ++i) {
      ASSERT_EQ(multi[i].soc.size(), base[i].soc.size());
      for (std::size_t s = 0; s < base[i].soc.size(); ++s) {
        // Bitwise: per-column panel results are independent of the
        // gathered batch width, so sharding must not change an ulp even
        // at f32.
        EXPECT_EQ(multi[i].soc[s], base[i].soc[s])
            << "lane " << i << " step " << s << " threads " << threads;
      }
    }
  }
}

TEST(RolloutPrecision, ClosedLoopF32MatchesGluedSegmentsAndTracksF64) {
  // The closed-loop contract survives precision reduction: a re-anchored
  // f32 lane is bitwise the glued sequence of open-loop f32 segments
  // restarted at each re-anchor (the engine's own open-loop path on the
  // sliced trace supplies the segments), and the whole closed-loop f32
  // trajectory tracks f64 within the backend's committed 1e-4 — with
  // margin, since re-anchors reset accumulated float drift.
  const core::TwoBranchNet net = testing::make_fitted_net(47);
  const data::Trace trace = testing::synthetic_trace(140, 13);
  const double horizon_s = 60.0;
  const std::size_t k = 2;  // 60 s horizon on the 30 s synthetic cadence
  const data::WorkloadSchedule schedule =
      data::build_workload_schedule(trace, horizon_s);
  const data::ReanchorPlan plan =
      data::build_reanchor_plan(trace, horizon_s, 25);
  ASSERT_GE(plan.size(), 2u);

  RolloutEngine f32(net, {.threads = 1,
                          .precision = core::Precision::kFloat32});
  const core::Rollout closed =
      f32.run_single(schedule, LaneKind::kCascade, {.capacity_ah = 0.0}, &plan);

  const std::vector<double> glued = testing::glued_open_loop_soc(
      f32, trace, horizon_s, k, schedule, plan);
  ASSERT_EQ(glued.size(), closed.soc.size());
  for (std::size_t s = 0; s < glued.size(); ++s) {
    EXPECT_EQ(closed.soc[s], glued[s]) << "f32 glued step " << s;
  }

  RolloutEngine f64(net, {.threads = 1});
  expect_soc_close(closed,
                   f64.run_single(schedule, LaneKind::kCascade, {.capacity_ah = 0.0}, &plan),
                   1e-4, "closed-loop f32 vs f64");
}

TEST(RolloutPrecision, ClosedLoopF32InvariantToThreadCount) {
  const core::TwoBranchNet net = testing::make_fitted_net(53);
  const std::vector<data::Trace> fleet = testing::synthetic_fleet(37, 61);
  const std::vector<data::WorkloadSchedule> schedules =
      data::build_workload_schedules(fleet, 30.0);
  std::vector<data::ReanchorPlan> plans;
  plans.reserve(fleet.size());
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    plans.push_back(data::build_reanchor_plan(fleet[i], 30.0, 4 + i % 3));
  }
  std::vector<RolloutLane> lanes(schedules.size());
  for (std::size_t i = 0; i < schedules.size(); ++i) {
    lanes[i].schedule = &schedules[i];
    if (i % 2 == 0) lanes[i].reanchor = &plans[i];
    if (i % 5 == 3) {
      lanes[i].kind = LaneKind::kPhysicsOnly;
      lanes[i].params.capacity_ah = 3.0;
    }
  }

  RolloutEngine single(net, {.threads = 1,
                             .precision = core::Precision::kFloat32});
  const std::vector<core::Rollout> base = single.run(lanes);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    RolloutEngine engine(net, {.threads = threads,
                               .precision = core::Precision::kFloat32});
    const std::vector<core::Rollout> multi = engine.run(lanes);
    ASSERT_EQ(multi.size(), base.size());
    for (std::size_t i = 0; i < base.size(); ++i) {
      ASSERT_EQ(multi[i].soc.size(), base[i].soc.size());
      for (std::size_t s = 0; s < base[i].soc.size(); ++s) {
        EXPECT_EQ(multi[i].soc[s], base[i].soc[s])
            << "lane " << i << " step " << s << " threads " << threads;
      }
    }
  }
}

TEST(RolloutPrecision, ReanchorPlanAtStepZeroReproducesPlainSeedAtF32) {
  // Same padded Branch-1 panel for the seed and a step-0 re-anchor fed
  // the identical row: per-column independence makes them bitwise equal.
  const core::TwoBranchNet net = testing::make_fitted_net(59);
  const data::Trace trace = testing::synthetic_trace(90, 21);
  const data::WorkloadSchedule schedule =
      data::build_workload_schedule(trace, 30.0);
  data::ReanchorPlan plan;
  plan.steps = {0};
  plan.sensors = nn::Matrix(1, 3);
  plan.sensors(0, 0) = schedule.voltage0;
  plan.sensors(0, 1) = schedule.current0;
  plan.sensors(0, 2) = schedule.temp0;

  RolloutEngine engine(net, {.threads = 1,
                             .precision = core::Precision::kFloat32});
  const core::Rollout closed =
      engine.run_single(schedule, LaneKind::kCascade, {.capacity_ah = 0.0}, &plan);
  const core::Rollout open = engine.run_single(schedule);
  ASSERT_EQ(closed.soc.size(), open.soc.size());
  for (std::size_t s = 0; s < open.soc.size(); ++s) {
    EXPECT_EQ(closed.soc[s], open.soc[s]) << "step " << s;
  }
}

TEST(RolloutPrecision, ClampKnobAppliesAtF32) {
  const core::TwoBranchNet net = testing::make_fitted_net(43);
  const data::Trace trace = testing::synthetic_trace(80, 9);
  const data::WorkloadSchedule schedule =
      data::build_workload_schedule(trace, 30.0);

  RolloutEngine clamped(net, {.threads = 1,
                              .precision = core::Precision::kFloat32});
  for (const double s : clamped.run_single(schedule).soc) {
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
  RolloutEngine raw(net, {.threads = 1,
                          .clamp_soc = false,
                          .precision = core::Precision::kFloat32});
  bool out_of_range = false;
  for (const double s : raw.run_single(schedule).soc) {
    if (s < 0.0 || s > 1.0) out_of_range = true;
  }
  EXPECT_TRUE(out_of_range)
      << "fixture never left [0, 1]; clamp test is vacuous";
}

TEST(FleetPrecision, F32TracksF64AcrossTicks) {
  const core::TwoBranchNet net = testing::make_fitted_net(9);
  const std::size_t cells = 531;
  util::Rng rng(101);
  const nn::Matrix sensors = random_sensors(cells, rng);
  const nn::Matrix workload = random_workload(cells, rng);

  FleetEngine f64(net, cells, {.threads = 3});
  FleetEngine f32(net, cells,
                  {.threads = 3, .precision = core::Precision::kFloat32});
  f64.init_from_sensors(sensors);
  f32.init_from_sensors(sensors);
  for (int tick = 0; tick < 5; ++tick) {
    f64.step(workload);
    f32.step(workload);
  }
  for (std::size_t i = 0; i < cells; ++i) {
    EXPECT_NEAR(f32.soc()[i], f64.soc()[i], 1e-4) << "cell " << i;
  }
}

TEST(FleetPrecision, F32ResultsInvariantToThreadCount) {
  const core::TwoBranchNet net = testing::make_fitted_net(9);
  const std::size_t cells = 217;
  util::Rng rng(55);
  const nn::Matrix sensors = random_sensors(cells, rng);
  const nn::Matrix workload = random_workload(cells, rng);

  auto run = [&](std::size_t threads) {
    FleetEngine engine(net, cells,
                       {.threads = threads,
                        .precision = core::Precision::kFloat32});
    engine.init_from_sensors(sensors);
    for (int t = 0; t < 3; ++t) engine.step(workload);
    return std::vector<double>(engine.soc().begin(), engine.soc().end());
  };
  const std::vector<double> base = run(1);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{5}}) {
    const std::vector<double> multi = run(threads);
    for (std::size_t i = 0; i < cells; ++i) {
      EXPECT_EQ(multi[i], base[i]) << "cell " << i << " threads " << threads;
    }
  }
}

TEST(FleetPrecision, SharedRowRunMatchesExplicitStepsAtF32) {
  const core::TwoBranchNet net = testing::make_fitted_net(9);
  const std::size_t cells = 203;
  FleetConfig config;
  config.threads = 3;
  config.precision = core::Precision::kFloat32;

  FleetEngine staged(net, cells, config);
  FleetEngine stepped(net, cells, config);
  std::vector<double> start(cells);
  util::Rng rng(5);
  for (auto& s : start) s = rng.uniform(0.1, 0.95);
  staged.set_soc(start);
  stepped.set_soc(start);

  staged.run(-2.5, 22.0, 45.0, 4);
  nn::Matrix workload(cells, 3);
  for (std::size_t i = 0; i < cells; ++i) {
    workload(i, 0) = -2.5;
    workload(i, 1) = 22.0;
    workload(i, 2) = 45.0;
  }
  for (int t = 0; t < 4; ++t) stepped.step(workload);
  for (std::size_t i = 0; i < cells; ++i) {
    EXPECT_EQ(staged.soc()[i], stepped.soc()[i]) << "cell " << i;
  }
}

}  // namespace
}  // namespace socpinn::serve
