#include "core/experiment.hpp"

#include <gtest/gtest.h>

#include "core/predictor.hpp"
#include "core/test_helpers.hpp"

namespace socpinn::core {
namespace {

ExperimentSetup small_setup() {
  ExperimentSetup setup;
  setup.train_traces = testing::make_train_traces();
  setup.test_traces = testing::make_test_traces();
  setup.native_horizon_s = 120.0;
  setup.test_horizons_s = {120.0, 240.0};
  setup.cell.capacity_ah = 3.0;
  setup.train.epochs = 30;
  return setup;
}

TEST(StandardVariants, ComposesTheSixBars) {
  const auto variants = standard_variants({120.0, 240.0, 360.0});
  ASSERT_EQ(variants.size(), 6u);
  EXPECT_EQ(variants[0].label, "No-PINN");
  EXPECT_EQ(variants[0].kind, VariantKind::kNoPinn);
  EXPECT_EQ(variants[1].label, "Physics-Only");
  EXPECT_EQ(variants[1].kind, VariantKind::kPhysicsOnly);
  EXPECT_EQ(variants[2].label, "PINN-120s");
  ASSERT_EQ(variants[2].physics_horizons_s.size(), 1u);
  EXPECT_DOUBLE_EQ(variants[2].physics_horizons_s[0], 120.0);
  EXPECT_EQ(variants[5].label, "PINN-All");
  EXPECT_EQ(variants[5].physics_horizons_s.size(), 3u);
}

TEST(StandardVariants, RejectsEmptyHorizons) {
  EXPECT_THROW((void)standard_variants({}), std::invalid_argument);
}

TEST(RunHorizonExperiment, ProducesWellFormedResults) {
  const ExperimentSetup setup = small_setup();
  const std::vector<VariantSpec> variants = {
      {"No-PINN", VariantKind::kNoPinn, {}},
      {"Physics-Only", VariantKind::kPhysicsOnly, {}},
      {"PINN-All", VariantKind::kPinn, {120.0, 240.0}},
  };
  const std::uint64_t seeds[] = {1, 2};
  const auto results = run_horizon_experiment(setup, variants, seeds);

  ASSERT_EQ(results.size(), 3u);
  for (const auto& result : results) {
    ASSERT_EQ(result.mae_mean.size(), 2u);
    ASSERT_EQ(result.mae_std.size(), 2u);
    for (double mae : result.mae_mean) {
      EXPECT_GT(mae, 0.0);
      EXPECT_LT(mae, 1.0);
    }
    EXPECT_GT(result.estimation_mae, 0.0);
  }
  // Branch 1 is shared: every variant reports the same estimation MAE.
  EXPECT_DOUBLE_EQ(results[0].estimation_mae, results[1].estimation_mae);
  EXPECT_DOUBLE_EQ(results[0].estimation_mae, results[2].estimation_mae);
}

TEST(RunHorizonExperiment, MultiSeedFillsStd) {
  ExperimentSetup setup = small_setup();
  setup.test_horizons_s = {120.0};
  const std::vector<VariantSpec> variants = {
      {"No-PINN", VariantKind::kNoPinn, {}}};
  const std::uint64_t one_seed[] = {1};
  const std::uint64_t two_seeds[] = {1, 2};
  const auto single = run_horizon_experiment(setup, variants, one_seed);
  const auto multi = run_horizon_experiment(setup, variants, two_seeds);
  EXPECT_DOUBLE_EQ(single[0].mae_std[0], 0.0);
  EXPECT_GT(multi[0].mae_std[0], 0.0);
}

TEST(RunHorizonExperiment, Validates) {
  const ExperimentSetup setup = small_setup();
  const std::vector<VariantSpec> variants = {
      {"No-PINN", VariantKind::kNoPinn, {}}};
  EXPECT_THROW(
      (void)run_horizon_experiment(setup, variants, {}),
      std::invalid_argument);
  ExperimentSetup no_horizons = small_setup();
  no_horizons.test_horizons_s = {};
  const std::uint64_t seeds[] = {1};
  EXPECT_THROW(
      (void)run_horizon_experiment(no_horizons, variants, seeds),
      std::invalid_argument);
}

TEST(TrainTwoBranch, PinnVariantTrainsBothBranches) {
  const ExperimentSetup setup = small_setup();
  const VariantSpec spec{"PINN-All", VariantKind::kPinn, {120.0, 240.0}};
  const TrainedModel model = train_two_branch(setup, spec, 1);
  EXPECT_FALSE(model.branch1_history.data_loss.empty());
  EXPECT_FALSE(model.branch2_history.data_loss.empty());
  EXPECT_FALSE(model.branch2_history.physics_loss.empty());
  EXPECT_LT(model.branch1_history.final_data_loss(), 0.1);
}

TEST(TrainTwoBranch, PhysicsOnlySkipsBranch2) {
  const ExperimentSetup setup = small_setup();
  const VariantSpec spec{"Physics-Only", VariantKind::kPhysicsOnly, {}};
  const TrainedModel model = train_two_branch(setup, spec, 1);
  EXPECT_FALSE(model.branch1_history.data_loss.empty());
  EXPECT_TRUE(model.branch2_history.data_loss.empty());
}

TEST(TrainTwoBranch, PhysicsOnlyModelServesAPhysicsRollout) {
  // Fig. 5's Physics-Only line rolls through the serve engine, which
  // requires both scalers fitted even though Branch 2 is never trained.
  const ExperimentSetup setup = small_setup();
  const VariantSpec spec{"Physics-Only", VariantKind::kPhysicsOnly, {}};
  const TrainedModel model = train_two_branch(setup, spec, 1);
  const data::Trace& trace = setup.test_traces.front();
  const Rollout rollout =
      rollout_physics_only(model.net, trace, 120.0, {.capacity_ah = 3.0});
  ASSERT_GT(rollout.times_s.size(), 1u);
  EXPECT_EQ(rollout.soc.size(), rollout.times_s.size());
  EXPECT_EQ(rollout.truth.size(), rollout.times_s.size());
  for (const double soc : rollout.soc) {
    EXPECT_GE(soc, 0.0);
    EXPECT_LE(soc, 1.0);
  }
}

TEST(TrainTwoBranch, NoPinnHasNoPhysicsHistory) {
  const ExperimentSetup setup = small_setup();
  const VariantSpec spec{"No-PINN", VariantKind::kNoPinn, {}};
  const TrainedModel model = train_two_branch(setup, spec, 1);
  EXPECT_FALSE(model.branch2_history.data_loss.empty());
  EXPECT_TRUE(model.branch2_history.physics_loss.empty());
}

}  // namespace
}  // namespace socpinn::core
