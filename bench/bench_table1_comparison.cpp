/// \file bench_table1_comparison.cpp
/// Reproduces Table I: state-of-the-art comparison on the LG dataset for
/// SoC(t) estimation and SoC(t+N) prediction (N = 30 s) at 0 and 25 degC
/// ambient, with memory and operation counts.
///
/// Measured rows: No-PINN, PINN-All (two-branch net, both tasks), our
/// right-sized LSTM in the style of Wong et al. [17] and our DE-MLP in the
/// style of Dang et al. [7] (estimation only — neither can predict).
/// The cost columns for [17] report the published architecture's scale
/// (computed analytically), since running a 4 Mb LSTM adds nothing to the
/// accuracy comparison on simulated data.
///
/// Paper reference: two-branch 0.014/0.014 @25C and 0.031/0.032 @0C with
/// ~9 kB / ~1150 ops vs LSTM [17] 0.012 @25C with ~4 Mb / ~300 M ops;
/// DE-LSTM 0.129 and DE-MLP 0.177 @0C.

#include <cstdio>
#include <vector>

#include "baselines/de_pinn.hpp"
#include "baselines/lstm_estimator.hpp"
#include "core/experiment.hpp"
#include "data/lg.hpp"
#include "data/preprocess.hpp"
#include "nn/metrics.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace socpinn;

namespace {

struct TempSplit {
  double temp_c;
  std::vector<data::Trace> test_traces;  // smoothed
};

}  // namespace

int main(int argc, char** argv) {
  util::set_log_level(util::LogLevel::kWarn);
  const util::ArgParser args(argc, argv);
  const bool smoke = args.get_bool("smoke", false);  // CI smoke mode
  const int epochs = args.get_int("epochs", smoke ? 2 : 200);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));

  util::WallTimer timer;

  // Training data: the standard mixed-cycle set (ambients 0/10/25 degC).
  data::LgConfig train_config;
  const data::LgDataset train_set = data::generate_lg(train_config);

  // Test data at the two ambient temperatures of Table I.
  std::vector<TempSplit> splits;
  for (double temp : {0.0, 25.0}) {
    data::LgConfig config;
    config.test_temp_c = temp;
    config.seed = train_config.seed + 100 + static_cast<int>(temp);
    const data::LgDataset ds = data::generate_lg(config);
    TempSplit split;
    split.temp_c = temp;
    for (const auto& run : ds.test_runs) {
      split.test_traces.push_back(data::smooth_trace(run.trace, 30.0));
    }
    splits.push_back(std::move(split));
  }

  core::ExperimentSetup setup;
  for (const auto& run : train_set.train_runs) {
    setup.train_traces.push_back(data::smooth_trace(run.trace, 30.0));
  }
  setup.native_horizon_s = 30.0;
  setup.cell.capacity_ah =
      battery::cell_params(battery::Chemistry::kLgHg2).capacity_ah;
  setup.train.epochs = static_cast<std::size_t>(epochs);
  setup.branch1_stride = 100;
  setup.branch2_stride = 100;

  // Two-branch models.
  core::TrainedModel no_pinn = core::train_two_branch(
      setup, {"No-PINN", core::VariantKind::kNoPinn, {}}, seed);
  core::TrainedModel pinn_all = core::train_two_branch(
      setup, {"PINN-All", core::VariantKind::kPinn, {30.0, 50.0, 70.0}},
      seed);

  // LSTM estimator in the style of [17] (right-sized for the simulation).
  baselines::LstmEstimatorConfig lstm_config;
  lstm_config.hidden = 32;
  lstm_config.window = 30;
  lstm_config.train_stride = 400;
  lstm_config.epochs = 60;
  lstm_config.seed = seed;
  baselines::LstmSocEstimator lstm(lstm_config);
  (void)lstm.fit(std::span<const data::Trace>(setup.train_traces));

  // DE-MLP in the style of [7].
  baselines::DePinnConfig de_config;
  de_config.train_stride = 200;
  de_config.epochs = 100;
  de_config.seed = seed;
  de_config.capacity_ah = setup.cell.capacity_ah;
  baselines::DeMlpEstimator de_mlp(de_config);
  (void)de_mlp.fit(std::span<const data::Trace>(setup.train_traces));

  const nn::ModelCost two_branch_cost = pinn_all.net.cost();
  const nn::ModelCost lstm_published = lstm.published_cost();
  const nn::ModelCost de_cost = de_mlp.cost();

  util::TextTable table;
  table.set_header({"Model", "T [C]", "SoC(t)", "SoC(t+N)", "Mem", "Ops"});
  for (const auto& split : splits) {
    const std::span<const data::Trace> tests(split.test_traces);
    const auto b1_data = data::build_branch1_data(tests, 200);
    const auto eval = data::build_horizon_eval(tests, 30.0, 200);
    const std::string temp = util::format_double(split.temp_c, 0);

    auto add_two_branch = [&](const char* label, core::TrainedModel& model) {
      const double est = nn::mae(core::estimate_dataset(model.net, b1_data.x),
                                 b1_data.y.data());
      const core::HorizonPrediction pred =
          core::predict_cascade(model.net, eval);
      table.add_row({label, temp, util::format_double(est, 4),
                     util::format_double(nn::mae(pred.soc_pred, eval.target),
                                         4),
                     two_branch_cost.mem_str(), two_branch_cost.ops_str()});
    };
    add_two_branch("No-PINN", no_pinn);
    add_two_branch("PINN-All", pinn_all);

    table.add_row({"LSTM [17]-style", temp,
                   util::format_double(lstm.evaluate_mae(tests, 200), 4),
                   "n.a.", lstm_published.mem_str(),
                   lstm_published.ops_str()});
    table.add_row({"DE-MLP [7]-style", temp,
                   util::format_double(de_mlp.evaluate_mae(tests, 200), 4),
                   "n.a.", de_cost.mem_str(), de_cost.ops_str()});
  }

  std::printf(
      "%s\n",
      table.str("Table I — LG: SoA comparison (N = 30 s)").c_str());
  std::printf(
      "LSTM cost columns report the published [17] architecture "
      "(hidden %zu); the trained surrogate uses hidden %zu.\n",
      lstm_config.published_hidden, lstm_config.hidden);
  std::printf(
      "Paper reference @25C: ours 0.014/0.014, LSTM [17] 0.012/n.a.; @0C: "
      "ours 0.031/0.032, DE-LSTM 0.129, DE-MLP 0.177; memory 9 kB vs 4 Mb "
      "(400x), ops 1.2 k vs 300 M.\n");
  std::printf("elapsed: %.1f s\n", timer.seconds());
  return 0;
}
