#include "core/experiment.hpp"

#include <sstream>
#include <stdexcept>

#include "nn/metrics.hpp"
#include "util/stats.hpp"

namespace socpinn::core {

namespace {

std::string horizon_label(double horizon_s) {
  std::ostringstream out;
  out << "PINN-" << horizon_s << 's';
  return out.str();
}

PhysicsConfig physics_for(const ExperimentSetup& setup,
                          const data::SupervisedData& branch2_data,
                          const std::vector<double>& horizons) {
  PhysicsConfig config = PhysicsConfig::from_data(
      branch2_data, setup.cell, horizons);
  config.weight = setup.physics_weight;
  return config;
}

}  // namespace

std::vector<VariantSpec> standard_variants(
    const std::vector<double>& horizons_s) {
  if (horizons_s.empty()) {
    throw std::invalid_argument("standard_variants: empty horizon set");
  }
  std::vector<VariantSpec> variants;
  variants.push_back({"No-PINN", VariantKind::kNoPinn, {}});
  variants.push_back({"Physics-Only", VariantKind::kPhysicsOnly, {}});
  for (double h : horizons_s) {
    variants.push_back({horizon_label(h), VariantKind::kPinn, {h}});
  }
  variants.push_back({"PINN-All", VariantKind::kPinn, horizons_s});
  return variants;
}

std::vector<VariantResult> run_horizon_experiment(
    const ExperimentSetup& setup, const std::vector<VariantSpec>& variants,
    std::span<const std::uint64_t> seeds) {
  if (seeds.empty()) {
    throw std::invalid_argument("run_horizon_experiment: no seeds");
  }
  if (setup.test_horizons_s.empty()) {
    throw std::invalid_argument("run_horizon_experiment: no test horizons");
  }

  // Datasets are seed-independent; build them once.
  const data::SupervisedData b1_train = data::build_branch1_data(
      std::span<const data::Trace>(setup.train_traces), setup.branch1_stride);
  const data::SupervisedData b2_train = data::build_branch2_data(
      std::span<const data::Trace>(setup.train_traces),
      setup.native_horizon_s, setup.branch2_stride);
  const data::SupervisedData b1_test = data::build_branch1_data(
      std::span<const data::Trace>(setup.test_traces), setup.eval_stride);

  std::vector<data::HorizonEvalData> evals;
  evals.reserve(setup.test_horizons_s.size());
  for (double h : setup.test_horizons_s) {
    evals.push_back(data::build_horizon_eval(
        std::span<const data::Trace>(setup.test_traces), h,
        setup.eval_stride));
  }

  // mae[variant][horizon] -> per-seed samples.
  std::vector<std::vector<std::vector<double>>> mae(
      variants.size(),
      std::vector<std::vector<double>>(setup.test_horizons_s.size()));
  std::vector<std::vector<double>> estimation_mae(variants.size());

  for (std::uint64_t seed : seeds) {
    TrainConfig train = setup.train;
    train.seed = seed;

    // Branch 1 is the same for every variant: train once per seed.
    TwoBranchNet base_net(TwoBranchConfig{}, seed);
    (void)train_branch1(base_net, b1_train, train);
    const double est_mae =
        nn::mae(estimate_dataset(base_net, b1_test.x), b1_test.y.data());

    for (std::size_t v = 0; v < variants.size(); ++v) {
      const VariantSpec& spec = variants[v];
      TwoBranchNet net = base_net;
      estimation_mae[v].push_back(est_mae);

      if (spec.kind != VariantKind::kPhysicsOnly) {
        std::optional<PhysicsConfig> physics;
        if (spec.kind == VariantKind::kPinn) {
          physics = physics_for(setup, b2_train, spec.physics_horizons_s);
        }
        (void)train_branch2(net, b2_train, physics, train);
      }

      for (std::size_t h = 0; h < evals.size(); ++h) {
        const HorizonPrediction pred =
            spec.kind == VariantKind::kPhysicsOnly
                ? predict_physics_only(net, evals[h], setup.cell)
                : predict_cascade(net, evals[h]);
        mae[v][h].push_back(nn::mae(pred.soc_pred, evals[h].target));
      }
    }
  }

  std::vector<VariantResult> results;
  results.reserve(variants.size());
  for (std::size_t v = 0; v < variants.size(); ++v) {
    VariantResult result;
    result.label = variants[v].label;
    result.test_horizons_s = setup.test_horizons_s;
    for (std::size_t h = 0; h < setup.test_horizons_s.size(); ++h) {
      result.mae_mean.push_back(util::mean(mae[v][h]));
      result.mae_std.push_back(
          mae[v][h].size() >= 2 ? util::stddev(mae[v][h]) : 0.0);
    }
    result.estimation_mae = util::mean(estimation_mae[v]);
    results.push_back(std::move(result));
  }
  return results;
}

TrainedModel train_two_branch(const ExperimentSetup& setup,
                              const VariantSpec& variant,
                              std::uint64_t seed) {
  const data::SupervisedData b1_train = data::build_branch1_data(
      std::span<const data::Trace>(setup.train_traces), setup.branch1_stride);
  const data::SupervisedData b2_train = data::build_branch2_data(
      std::span<const data::Trace>(setup.train_traces),
      setup.native_horizon_s, setup.branch2_stride);

  TrainConfig train = setup.train;
  train.seed = seed;

  TrainedModel model{TwoBranchNet(TwoBranchConfig{}, seed), {}, {}};
  model.branch1_history = train_branch1(model.net, b1_train, train);
  if (variant.kind == VariantKind::kPhysicsOnly) {
    // Branch 2 stays untrained and physics lanes never run it, but the
    // serve engines convert both scalers (core::require_trained), so the
    // model still needs a fitted Branch-2 scaler to be served at all.
    model.net.scaler2().fit(b2_train.x);
    return model;
  }
  std::optional<PhysicsConfig> physics;
  if (variant.kind == VariantKind::kPinn) {
    physics = physics_for(setup, b2_train, variant.physics_horizons_s);
  }
  model.branch2_history = train_branch2(model.net, b2_train, physics, train);
  return model;
}

}  // namespace socpinn::core
