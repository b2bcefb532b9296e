#include "core/two_branch_net.hpp"

#include <iterator>
#include <stdexcept>
#include <string>

namespace socpinn::core {

namespace {

std::vector<std::size_t> branch_dims(std::size_t inputs,
                                     const std::vector<std::size_t>& hidden) {
  if (hidden.empty()) {
    throw std::invalid_argument("TwoBranchNet: need at least one hidden layer");
  }
  std::vector<std::size_t> dims;
  dims.reserve(hidden.size() + 2);
  dims.push_back(inputs);
  dims.insert(dims.end(), hidden.begin(), hidden.end());
  dims.push_back(1);
  return dims;
}

}  // namespace

TwoBranchNet::TwoBranchNet(TwoBranchConfig config, std::uint64_t seed)
    : config_(std::move(config)) {
  util::Rng rng(seed);
  util::Rng rng1 = rng.split();
  util::Rng rng2 = rng.split();
  branch1_ = nn::Mlp::make(branch_dims(3, config_.hidden), rng1,
                           config_.activation);
  branch2_ = nn::Mlp::make(branch_dims(4, config_.hidden), rng2,
                           config_.activation);
}

double TwoBranchNet::infer_row(const nn::Mlp& branch,
                               const nn::StandardScaler& scaler,
                               std::span<double> row,
                               InferenceWorkspace& ws) {
  scaler.transform_row(row);
  const std::size_t need = branch.sample_scratch_size();
  if (ws.scratch.size() < need) ws.scratch.resize(need);
  return branch.infer_sample(row, ws.scratch)[0];
}

const nn::Matrix& TwoBranchNet::infer_batch(const nn::Mlp& branch,
                                            const nn::StandardScaler& scaler,
                                            const nn::Matrix& raw,
                                            bool columns,
                                            InferenceWorkspace& ws) {
  const std::size_t features = columns ? raw.rows() : raw.cols();
  const std::size_t n = columns ? raw.cols() : raw.rows();
  double row[4];  // a branch takes 3 or 4 features
  if (features != branch.input_dim() || features > std::size(row)) {
    throw std::invalid_argument("TwoBranchNet: batch has " +
                                std::to_string(features) +
                                " features, the branch takes " +
                                std::to_string(branch.input_dim()));
  }
  if (columns) {
    ws.out.resize(1, n);
  } else {
    ws.out.resize(n, 1);
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t f = 0; f < features; ++f) {
      row[f] = columns ? raw(f, i) : raw(i, f);
    }
    ws.out.data()[i] = infer_row(branch, scaler, {row, features}, ws);
  }
  return ws.out;
}

double TwoBranchNet::estimate_soc(double voltage, double current,
                                  double temp_c, InferenceWorkspace& ws) const {
  double row[] = {voltage, current, temp_c};
  return infer_row(branch1_, scaler1_, row, ws);
}

double TwoBranchNet::predict_soc(double soc_now, double avg_current,
                                 double avg_temp_c, double horizon_s,
                                 InferenceWorkspace& ws) const {
  double row[] = {soc_now, avg_current, avg_temp_c, horizon_s};
  return infer_row(branch2_, scaler2_, row, ws);
}

const nn::Matrix& TwoBranchNet::estimate_batch(const nn::Matrix& sensors_raw,
                                               InferenceWorkspace& ws) const {
  return infer_batch(branch1_, scaler1_, sensors_raw, false, ws);
}

const nn::Matrix& TwoBranchNet::predict_batch(const nn::Matrix& branch2_raw,
                                              InferenceWorkspace& ws) const {
  return infer_batch(branch2_, scaler2_, branch2_raw, false, ws);
}

const nn::Matrix& TwoBranchNet::predict_batch_columns(
    const nn::Matrix& branch2_raw_columns, InferenceWorkspace& ws) const {
  return infer_batch(branch2_, scaler2_, branch2_raw_columns, true, ws);
}

double TwoBranchNet::estimate_soc(double voltage, double current,
                                  double temp_c) {
  return estimate_soc(voltage, current, temp_c, ws_);
}

double TwoBranchNet::predict_soc(double soc_now, double avg_current,
                                 double avg_temp_c, double horizon_s) {
  return predict_soc(soc_now, avg_current, avg_temp_c, horizon_s, ws_);
}

nn::Matrix TwoBranchNet::estimate_batch(const nn::Matrix& sensors_raw) {
  return estimate_batch(sensors_raw, ws_);
}

nn::Matrix TwoBranchNet::predict_batch(const nn::Matrix& branch2_raw) {
  return predict_batch(branch2_raw, ws_);
}

std::size_t TwoBranchNet::num_params() {
  return branch1_.num_params() + branch2_.num_params();
}

nn::ModelCost TwoBranchNet::cost() {
  const nn::ModelCost c1 = nn::mlp_cost(branch1_);
  const nn::ModelCost c2 = nn::mlp_cost(branch2_);
  nn::ModelCost total;
  total.params = c1.params + c2.params;
  total.bytes_f32 = c1.bytes_f32 + c2.bytes_f32;
  total.macs = c1.macs + c2.macs;
  return total;
}

}  // namespace socpinn::core
