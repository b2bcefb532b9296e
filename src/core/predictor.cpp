#include "core/predictor.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "core/net_snapshot.hpp"
#include "serve/rollout_engine.hpp"

namespace socpinn::core {

namespace {

/// The checks both horizon predictors share: a non-empty set whose
/// workload holds one [avg I, avg T, N] row per sensor row.
void require_eval(const data::HorizonEvalData& eval, const std::string& who) {
  if (eval.size() == 0) throw std::invalid_argument(who + ": empty eval set");
  if (eval.workload.rows() != eval.size() || eval.workload.cols() != 3) {
    throw std::invalid_argument(who + ": workload must be n x 3");
  }
}

}  // namespace

std::vector<double> estimate_dataset(const TwoBranchNet& net,
                                     const nn::Matrix& sensors) {
  // Branch 1 alone, so a net whose Branch 2 is untrained (Physics-Only)
  // evaluates too.
  nn::Matrix scaled;
  nn::ForwardWorkspaceT<double> ws;
  const auto est =
      nn::forward_blocked(nn::MlpSnapshotT<double>::from(net.branch1()),
                          nn::ScalerStatsT<double>::from(net.scaler1()),
                          nn::transpose(sensors), scaled, ws)
          .data();
  return {est.begin(), est.end()};
}

HorizonPrediction predict_cascade(const TwoBranchNet& net,
                                  const data::HorizonEvalData& eval) {
  require_eval(eval, "predict_cascade");
  const std::size_t n = eval.size();
  const TwoBranchSnapshotT<double> snapshot(net);
  InferenceWorkspaceT<double> ws;
  // The Branch-1 panel lives in ws.branch1 and stays valid through the
  // Branch-2 forward, which uses ws.branch2.
  const nn::Matrix& soc_now =
      snapshot.estimate_columns(nn::transpose(eval.sensors), ws);
  nn::Matrix b2(4, n);
  for (std::size_t r = 0; r < n; ++r) {
    b2(0, r) = soc_now(0, r);
    b2(1, r) = eval.workload(r, 0);
    b2(2, r) = eval.workload(r, 1);
    b2(3, r) = eval.workload(r, 2);
  }
  const auto pred = snapshot.predict_columns(b2, ws).data();

  HorizonPrediction out;
  out.soc_now_est.assign(soc_now.data().begin(), soc_now.data().end());
  out.soc_pred.assign(pred.begin(), pred.end());
  return out;
}

HorizonPrediction predict_physics_only(const TwoBranchNet& net,
                                       const data::HorizonEvalData& eval,
                                       const CellParams& params) {
  require_eval(eval, "predict_physics_only");
  validate(params, "predict_physics_only");

  HorizonPrediction out;
  out.soc_now_est = estimate_dataset(net, eval.sensors);
  out.soc_pred.reserve(eval.size());
  for (std::size_t r = 0; r < eval.size(); ++r) {
    out.soc_pred.push_back(eq1_predict(out.soc_now_est[r],
                                       eval.workload(r, 0),
                                       eval.workload(r, 2), params));
  }
  return out;
}

double Rollout::final_abs_error() const {
  // Both vectors, not just soc: a Rollout with predictions but no ground
  // truth used to dereference truth.back() on an empty vector (UB).
  if (soc.empty() || truth.empty()) {
    throw std::logic_error("Rollout::final_abs_error: empty trajectory");
  }
  return std::fabs(soc.back() - truth.back());
}

Rollout rollout_cascade(const TwoBranchNet& net, const data::Trace& trace,
                        double horizon_s) {
  const data::WorkloadSchedule schedule =
      data::build_workload_schedule(trace, horizon_s);
  serve::RolloutEngine engine(net, {.threads = 1});
  return engine.run_single(schedule);
}

Rollout rollout_physics_only(const TwoBranchNet& net, const data::Trace& trace,
                             double horizon_s, const CellParams& params) {
  const data::WorkloadSchedule schedule =
      data::build_workload_schedule(trace, horizon_s);
  serve::RolloutEngine engine(net, {.threads = 1});
  return engine.run_single(schedule, serve::LaneKind::kPhysicsOnly, params);
}

Rollout rollout_closed_loop(const TwoBranchNet& net, const data::Trace& trace,
                            double horizon_s,
                            const data::ReanchorPlan& plan) {
  const data::WorkloadSchedule schedule =
      data::build_workload_schedule(trace, horizon_s);
  serve::RolloutEngine engine(net, {.threads = 1});
  return engine.run_single(schedule, serve::LaneKind::kCascade,
                           {.capacity_ah = 0.0}, &plan);
}

}  // namespace socpinn::core
