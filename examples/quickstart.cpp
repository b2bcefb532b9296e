/// \file quickstart.cpp
/// Minimal end-to-end tour of the library:
///   1. simulate a small battery-cycling dataset (Sandia-like protocol),
///   2. train the two-branch PINN (Branch 1 estimator + Branch 2 predictor
///      with the Coulomb-counting physics loss),
///   3. evaluate estimation and prediction MAE on held-out cycles,
///   4. save the trained model and reload it.
///
/// Runs in a few seconds. See drive_cycle_rollout / multi_horizon_planning
/// for the application-level scenarios.

#include <cstdio>

#include "core/experiment.hpp"
#include "core/model_io.hpp"
#include "data/sandia.hpp"
#include "example_support.hpp"
#include "nn/metrics.hpp"
#include "util/log.hpp"

using namespace socpinn;

int main(int argc, char** argv) {
  util::set_log_level(util::LogLevel::kWarn);
  const bool smoke = examples::strip_smoke_flag(argc, argv);

  // 1. Simulate: one NMC 18650 cycled at three ambients. Training cycles
  //    discharge at 1C; held-out cycles at 2C and 3C (the paper's split).
  data::SandiaConfig data_config;
  data_config.chemistries = {battery::Chemistry::kNmc};
  data_config.cycles_per_condition = 2;
  const data::SandiaDataset dataset = data::generate_sandia(data_config);
  std::printf("simulated %zu training and %zu test cycles\n",
              dataset.train_runs.size(), dataset.test_runs.size());

  // 2. Train a PINN whose physics loss spans three horizons. Only the
  //    N = 120 s horizon has labels; 240/360 s come from Eq. 1 alone.
  core::ExperimentSetup setup;
  setup.train_traces = dataset.train_traces();
  setup.test_traces = dataset.test_traces();
  setup.native_horizon_s = 120.0;
  setup.cell.capacity_ah =
      battery::cell_params(battery::Chemistry::kNmc).capacity_ah;
  setup.train.epochs = smoke ? 10 : 150;

  const core::VariantSpec pinn_all{
      "PINN-All", core::VariantKind::kPinn, {120.0, 240.0, 360.0}};
  core::TrainedModel model = core::train_two_branch(setup, pinn_all, /*seed=*/1);
  std::printf("trained %zu parameters (%s at float32)\n",
              model.net.num_params(), model.net.cost().mem_str().c_str());
  std::printf("final training losses: branch1 %.4f, branch2 %.4f\n",
              model.branch1_history.final_data_loss(),
              model.branch2_history.final_data_loss());

  // 3. Evaluate on the held-out high-rate cycles.
  const std::span<const data::Trace> tests(setup.test_traces);
  const auto b1_test = data::build_branch1_data(tests);
  std::printf("SoC(t) estimation MAE  (test): %.4f\n",
              nn::mae(core::estimate_dataset(model.net, b1_test.x),
                      b1_test.y.data()));
  for (double horizon : {120.0, 240.0, 360.0}) {
    const auto eval = data::build_horizon_eval(tests, horizon);
    const core::HorizonPrediction pred =
        core::predict_cascade(model.net, eval);
    std::printf("SoC(t+%3.0fs) prediction MAE (test): %.4f\n", horizon,
                nn::mae(pred.soc_pred, eval.target));
  }

  // 4. Persist and reload.
  const std::string path = "quickstart_model.txt";
  core::save_model(path, model.net);
  core::TwoBranchNet reloaded = core::load_model(path);
  std::printf("model round-trip via %s: SoC(0.8, -3A, 25C, +120s) = %.4f\n",
              path.c_str(), reloaded.predict_soc(0.8, -3.0, 25.0, 120.0));
  return 0;
}
