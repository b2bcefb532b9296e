#include "core/predictor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "battery/coulomb.hpp"
#include "core/test_helpers.hpp"
#include "core/trainer.hpp"
#include "nn/metrics.hpp"

namespace socpinn::core {
namespace {

/// Trains a small model once and shares it across tests in this file.
class PredictorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    traces_ = new std::vector<data::Trace>(testing::make_train_traces());
    net_ = new TwoBranchNet({}, 1);
    TrainConfig config;
    config.epochs = 80;
    config.seed = 1;
    const auto b1 =
        data::build_branch1_data(std::span<const data::Trace>(*traces_));
    const auto b2 = data::build_branch2_data(
        std::span<const data::Trace>(*traces_), 120.0);
    (void)train_branch1(*net_, b1, config);
    const PhysicsConfig physics =
        PhysicsConfig::from_data(b2, {.capacity_ah = 3.0}, {120.0, 240.0, 360.0});
    (void)train_branch2(*net_, b2, physics, config);
  }

  static void TearDownTestSuite() {
    delete net_;
    delete traces_;
    net_ = nullptr;
    traces_ = nullptr;
  }

  static std::vector<data::Trace>* traces_;
  static TwoBranchNet* net_;
};

std::vector<data::Trace>* PredictorTest::traces_ = nullptr;
TwoBranchNet* PredictorTest::net_ = nullptr;

TEST_F(PredictorTest, CascadeOutputsAlignedPredictions) {
  const auto eval = data::build_horizon_eval(
      std::span<const data::Trace>(*traces_), 120.0);
  const HorizonPrediction pred = predict_cascade(*net_, eval);
  ASSERT_EQ(pred.soc_pred.size(), eval.size());
  ASSERT_EQ(pred.soc_now_est.size(), eval.size());
  // On training data both stages must be accurate.
  EXPECT_LT(nn::mae(pred.soc_now_est, eval.soc_now), 0.05);
  EXPECT_LT(nn::mae(pred.soc_pred, eval.target), 0.05);
}

TEST_F(PredictorTest, CascadeUsesBranch1Estimate) {
  const auto eval = data::build_horizon_eval(
      std::span<const data::Trace>(*traces_), 120.0);
  const HorizonPrediction pred = predict_cascade(*net_, eval);
  // The cascade's first stage must equal estimate_batch on the sensors.
  const nn::Matrix est = net_->estimate_batch(eval.sensors);
  for (std::size_t r = 0; r < 10; ++r) {
    EXPECT_DOUBLE_EQ(pred.soc_now_est[r], est(r, 0));
  }
  EXPECT_EQ(estimate_dataset(*net_, eval.sensors), pred.soc_now_est);
}

TEST_F(PredictorTest, HorizonPredictorsRejectMisshapenWorkload) {
  // Both predictors read workload(r, 0..2) for every sensor row, so a
  // workload with fewer rows or fewer than 3 columns must throw instead
  // of reading past the matrix.
  const auto good = data::build_horizon_eval(
      std::span<const data::Trace>(*traces_), 120.0);
  data::HorizonEvalData short_rows = good;
  short_rows.workload = nn::Matrix(good.size() - 1, 3);
  data::HorizonEvalData narrow = good;
  narrow.workload = nn::Matrix(good.size(), 2);
  for (const data::HorizonEvalData* eval : {&short_rows, &narrow}) {
    EXPECT_THROW((void)predict_cascade(*net_, *eval), std::invalid_argument);
    EXPECT_THROW(
        (void)predict_physics_only(*net_, *eval, {.capacity_ah = 3.0}),
        std::invalid_argument);
  }
}

TEST_F(PredictorTest, PhysicsOnlyAppliesEquationOne) {
  const auto eval = data::build_horizon_eval(
      std::span<const data::Trace>(*traces_), 120.0);
  const HorizonPrediction pred = predict_physics_only(*net_, eval, {.capacity_ah = 3.0});
  for (std::size_t r = 0; r < eval.size(); r += 13) {
    const double expected = battery::coulomb_predict(
        pred.soc_now_est[r], eval.workload(r, 0), 120.0, 3.0);
    EXPECT_NEAR(pred.soc_pred[r], expected, 1e-12);
  }
}

TEST_F(PredictorTest, RolloutTimestampsAdvanceByHorizon) {
  const data::Trace& trace = (*traces_)[0];
  const Rollout rollout = rollout_cascade(*net_, trace, 240.0);
  ASSERT_GE(rollout.times_s.size(), 3u);
  EXPECT_DOUBLE_EQ(rollout.times_s[0], trace[0].time_s);
  for (std::size_t i = 1; i < rollout.times_s.size(); ++i) {
    EXPECT_NEAR(rollout.times_s[i] - rollout.times_s[i - 1], 240.0, 1e-9);
  }
  ASSERT_EQ(rollout.truth.size(), rollout.soc.size());
}

TEST_F(PredictorTest, RolloutTracksDischargeSegment) {
  // Autoregressive rollout over the CC-discharge portion of a training
  // cycle (25 steps of 120 s). Bound is loose: errors accumulate by
  // design (the paper's Fig. 5 discussion).
  const data::Trace discharge = (*traces_)[0].slice(0, 26);
  const Rollout rollout = rollout_cascade(*net_, discharge, 120.0);
  EXPECT_LT(rollout.final_abs_error(), 0.25);
  // And the trajectory must actually track the discharge downward.
  EXPECT_LT(rollout.soc.back(), 0.5);
}

TEST_F(PredictorTest, PhysicsOnlyRolloutStaysClamped) {
  const data::Trace& trace = (*traces_)[0];
  const Rollout rollout = rollout_physics_only(*net_, trace, 120.0, {.capacity_ah = 3.0});
  for (double s : rollout.soc) {
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
}

TEST_F(PredictorTest, PhysicsOnlyRolloutOverestimatesDischarge) {
  // Rated-capacity Coulomb counting under-counts SoC loss because the real
  // cell holds only ~93 % of nameplate: by end of discharge the physics
  // rollout must sit above the truth (the Fig. 5 behaviour).
  const data::Trace discharge = (*traces_)[0].slice(0, 25);  // CC discharge
  const Rollout rollout =
      rollout_physics_only(*net_, discharge, 120.0, {.capacity_ah = 3.0});
  EXPECT_GT(rollout.soc.back(), rollout.truth.back());
}

TEST_F(PredictorTest, RolloutValidatesHorizon) {
  const data::Trace& trace = (*traces_)[0];
  EXPECT_THROW((void)rollout_cascade(*net_, trace, 100.0),
               std::invalid_argument);
  EXPECT_THROW((void)rollout_cascade(*net_, trace, 0.0),
               std::invalid_argument);
}

TEST(Predictor, EmptyEvalThrows) {
  TwoBranchNet net;
  data::HorizonEvalData empty;
  EXPECT_THROW((void)predict_cascade(net, empty), std::invalid_argument);
  EXPECT_THROW((void)predict_physics_only(net, empty, {.capacity_ah = 3.0}),
               std::invalid_argument);
}

TEST_F(PredictorTest, ClosedLoopRolloutReanchorsMidTrajectory) {
  // Before the first re-anchor the closed-loop rollout IS the open-loop
  // one; at every re-anchor step it consumes the trace's recorded sensors
  // as a fresh Branch-1 estimate (recompute one by hand to pin it).
  const data::Trace& trace = (*traces_)[0];
  const Rollout open = rollout_cascade(*net_, trace, 120.0);
  const data::ReanchorPlan plan =
      data::build_reanchor_plan(trace, 120.0, 4);
  ASSERT_GE(plan.size(), 1u);
  const Rollout closed = rollout_closed_loop(*net_, trace, 120.0, plan);

  ASSERT_EQ(closed.soc.size(), open.soc.size());
  for (std::size_t s = 0; s < plan.steps[0]; ++s) {
    EXPECT_EQ(closed.soc[s], open.soc[s]) << "pre-re-anchor step " << s;
  }
  InferenceWorkspace ws;
  const double reanchored = std::clamp(
      net_->estimate_soc(plan.sensors(0, 0), plan.sensors(0, 1),
                         plan.sensors(0, 2), ws),
      0.0, 1.0);
  EXPECT_EQ(closed.soc[plan.steps[0]], reanchored);
}

TEST(Rollout, FinalAbsErrorRequiresData) {
  Rollout rollout;
  EXPECT_THROW((void)rollout.final_abs_error(), std::logic_error);
  // Predictions without ground truth (or vice versa) used to dereference
  // back() of the empty vector — UB, not an error. Both sides must throw.
  rollout.soc = {0.5};
  EXPECT_THROW((void)rollout.final_abs_error(), std::logic_error);
  rollout.soc.clear();
  rollout.truth = {0.4};
  EXPECT_THROW((void)rollout.final_abs_error(), std::logic_error);
  rollout.soc = {0.5};
  EXPECT_NEAR(rollout.final_abs_error(), 0.1, 1e-12);
}

}  // namespace
}  // namespace socpinn::core
