/// Parity of the batched inference entry points — TwoBranchNet's batch
/// loops and the whole-dataset cascade through the f64 serving snapshot
/// (core::predict_cascade) — against the per-sample scalar reference
/// (estimate_soc / predict_soc). Every inference-vs-inference comparison
/// is bitwise. Only the training forward(), which adds the bias last and
/// skips zero terms, is compared within a tolerance.

#include <gtest/gtest.h>

#include <vector>

#include "core/predictor.hpp"
#include "core/two_branch_net.hpp"
#include "support/fitted_net.hpp"
#include "util/rng.hpp"

namespace socpinn::core {
namespace {

using testing::make_fitted_net;
using testing::random_branch2;
using testing::random_sensors;

/// forward() vs the reference: same terms, different rounding order.
constexpr double kTrainingForwardTol = 1e-12;

TEST(BatchedParity, EstimateBatchMatchesScalarLoop) {
  TwoBranchNet net = make_fitted_net(7);
  util::Rng rng(11);
  const nn::Matrix sensors = random_sensors(257, rng);

  InferenceWorkspace ws;
  const nn::Matrix& batch = net.estimate_batch(sensors, ws);
  ASSERT_EQ(batch.rows(), sensors.rows());
  ASSERT_EQ(batch.cols(), 1u);

  InferenceWorkspace scalar_ws;
  for (std::size_t r = 0; r < sensors.rows(); ++r) {
    const double scalar = net.estimate_soc(sensors(r, 0), sensors(r, 1),
                                           sensors(r, 2), scalar_ws);
    EXPECT_EQ(batch(r, 0), scalar) << "row " << r;
  }
}

TEST(BatchedParity, PredictBatchMatchesScalarLoop) {
  TwoBranchNet net = make_fitted_net(7);
  util::Rng rng(13);
  const nn::Matrix inputs = random_branch2(256, rng);

  InferenceWorkspace ws;
  const nn::Matrix& batch = net.predict_batch(inputs, ws);

  InferenceWorkspace scalar_ws;
  for (std::size_t r = 0; r < inputs.rows(); ++r) {
    const double scalar =
        net.predict_soc(inputs(r, 0), inputs(r, 1), inputs(r, 2),
                        inputs(r, 3), scalar_ws);
    EXPECT_EQ(batch(r, 0), scalar) << "row " << r;
  }
}

TEST(BatchedParity, PredictBatchColumnsMatchesRowMajorBitwise) {
  // Staging the batch transposed must not change a single ulp, at widths
  // on both sides of the engines' 32-column pad tile.
  TwoBranchNet net = make_fitted_net(7);
  util::Rng rng(19);
  for (const std::size_t n :
       {std::size_t{1}, std::size_t{5}, std::size_t{31}, std::size_t{32},
        std::size_t{257}}) {
    const nn::Matrix inputs = random_branch2(n, rng);
    nn::Matrix columns(4, n);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < 4; ++c) columns(c, r) = inputs(r, c);
    }
    InferenceWorkspace row_ws;
    const nn::Matrix& rows_out = net.predict_batch(inputs, row_ws);
    InferenceWorkspace col_ws;
    const nn::Matrix& cols_out = net.predict_batch_columns(columns, col_ws);
    ASSERT_EQ(cols_out.rows(), 1u);
    ASSERT_EQ(cols_out.cols(), n);
    for (std::size_t r = 0; r < n; ++r) {
      EXPECT_EQ(cols_out(0, r), rows_out(r, 0)) << "n " << n << " row " << r;
    }
  }
}

TEST(BatchedParity, CascadeBatchMatchesScalarCascade) {
  // The batched cascade is predict_cascade: Branch-1 and Branch-2 panels
  // through TwoBranchSnapshotT<double>. It must equal the scalar cascade
  // bitwise at both stages, across the 256-column block of the snapshot.
  TwoBranchNet net = make_fitted_net(7);
  util::Rng rng(17);
  const std::size_t n = 300;
  data::HorizonEvalData eval;
  eval.sensors = random_sensors(n, rng);
  eval.workload = nn::Matrix(n, 3);
  for (std::size_t r = 0; r < n; ++r) {
    eval.workload(r, 0) = rng.uniform(-6.0, 3.0);
    eval.workload(r, 1) = rng.uniform(-5.0, 45.0);
    eval.workload(r, 2) = rng.uniform(10.0, 600.0);
  }

  const HorizonPrediction batch = predict_cascade(net, eval);
  ASSERT_EQ(batch.soc_pred.size(), n);

  InferenceWorkspace scalar_ws;
  for (std::size_t r = 0; r < n; ++r) {
    const double soc_now =
        net.estimate_soc(eval.sensors(r, 0), eval.sensors(r, 1),
                         eval.sensors(r, 2), scalar_ws);
    const double scalar =
        net.predict_soc(soc_now, eval.workload(r, 0), eval.workload(r, 1),
                        eval.workload(r, 2), scalar_ws);
    EXPECT_EQ(batch.soc_now_est[r], soc_now) << "row " << r;
    EXPECT_EQ(batch.soc_pred[r], scalar) << "row " << r;
  }
}

TEST(BatchedParity, WorkspacePathMatchesLegacyAllocatingPath) {
  TwoBranchNet net = make_fitted_net(7);
  util::Rng rng(19);
  const nn::Matrix sensors = random_sensors(64, rng);
  const nn::Matrix inputs = random_branch2(64, rng);

  InferenceWorkspace ws;
  const nn::Matrix ws_est = net.estimate_batch(sensors, ws);
  const nn::Matrix ws_pred = net.predict_batch(inputs, ws);
  // Legacy signatures: owned copies via the net's internal workspace, and
  // the training-path forward underneath branch1()/branch2().
  EXPECT_TRUE(ws_est == net.estimate_batch(sensors));
  EXPECT_TRUE(ws_pred == net.predict_batch(inputs));
  const nn::Matrix train_path =
      net.branch1().forward(net.scaler1().transform(sensors), false);
  for (std::size_t r = 0; r < sensors.rows(); ++r) {
    EXPECT_NEAR(ws_est(r, 0), train_path(r, 0), kTrainingForwardTol);
  }
}

TEST(BatchedParity, RepeatedWorkspaceUseAtVaryingBatchSizes) {
  // Shrinking then growing the batch reuses buffers; results must not
  // depend on workspace history.
  TwoBranchNet net = make_fitted_net(7);
  util::Rng rng(23);
  InferenceWorkspace ws;
  const nn::Matrix big = random_sensors(200, rng);
  const nn::Matrix small = random_sensors(3, rng);

  const nn::Matrix first_big = net.estimate_batch(big, ws);
  const nn::Matrix after_small = net.estimate_batch(small, ws);
  const nn::Matrix second_big = net.estimate_batch(big, ws);
  EXPECT_TRUE(first_big == second_big);
  InferenceWorkspace fresh;
  EXPECT_TRUE(after_small == net.estimate_batch(small, fresh));
}

}  // namespace
}  // namespace socpinn::core
