#include "nn/mlp.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "nn/dropout.hpp"
#include "nn/gradcheck.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "support/known_answer_net.hpp"

namespace socpinn::nn {
namespace {

TEST(Mlp, MakeBuildsAlternatingLayers) {
  util::Rng rng(1);
  Mlp net = Mlp::make({3, 16, 32, 16, 1}, rng);
  // dense, relu, dense, relu, dense, relu, dense -> 7 layers.
  EXPECT_EQ(net.num_layers(), 7u);
  EXPECT_EQ(net.input_dim(), 3u);
  EXPECT_EQ(net.output_dim(), 1u);
}

TEST(Mlp, PaperBranchParameterCounts) {
  util::Rng rng(1);
  // Branch 1: 3 inputs. Branch 2: 4 inputs. Hidden 16/32/16, scalar out.
  Mlp b1 = Mlp::make({3, 16, 32, 16, 1}, rng);
  Mlp b2 = Mlp::make({4, 16, 32, 16, 1}, rng);
  const std::size_t p1 = b1.num_params();
  const std::size_t p2 = b2.num_params();
  EXPECT_EQ(p1, 3u * 16 + 16 + 16u * 32 + 32 + 32u * 16 + 16 + 16u + 1);
  // The full two-branch model of the paper: 2,322 trainable parameters.
  EXPECT_EQ(p1 + p2, 2322u);
}

TEST(Mlp, MakeRejectsTooFewDims) {
  util::Rng rng(1);
  EXPECT_THROW((void)Mlp::make({3}, rng), std::invalid_argument);
}

TEST(Mlp, AddRejectsNull) {
  Mlp net;
  EXPECT_THROW(net.add(nullptr), std::invalid_argument);
}

TEST(Mlp, DeepCopyIsIndependent) {
  util::Rng rng(3);
  Mlp a = Mlp::make({2, 4, 1}, rng);
  Mlp b = a;
  const Matrix x(1, 2, std::vector<double>{0.3, -0.4});
  const double before = b.predict_scalar(x.row(0));
  std::vector<double> scratch(b.sample_scratch_size());
  const double ref_before = b.infer_sample(x.row(0), scratch)[0];
  // Mutate a's weights; b must not change, through either forward.
  for (Matrix* p : a.params()) p->fill(0.0);
  EXPECT_DOUBLE_EQ(b.predict_scalar(x.row(0)), before);
  EXPECT_DOUBLE_EQ(a.predict_scalar(x.row(0)), 0.0);
  EXPECT_EQ(b.infer_sample(x.row(0), scratch)[0], ref_before);
  EXPECT_EQ(a.infer_sample(x.row(0), scratch)[0], 0.0);
  // Copy-assignment resolves the target's own layers too.
  Mlp c;
  c = b;
  for (Matrix* p : b.params()) p->fill(0.0);
  EXPECT_EQ(c.infer_sample(x.row(0), scratch)[0], ref_before);
}

TEST(Mlp, PredictScalarMatchesForward) {
  util::Rng rng(4);
  Mlp net = Mlp::make({3, 8, 1}, rng);
  const Matrix x(1, 3, std::vector<double>{0.1, 0.2, 0.3});
  EXPECT_DOUBLE_EQ(net.predict_scalar(x.row(0)), net.forward(x)(0, 0));
}

TEST(Mlp, InferSampleMatchesHandComputedValues) {
  const Mlp mlp = testing::make_known_answer_net();
  std::vector<double> scratch(mlp.sample_scratch_size());
  for (const auto& ka : testing::kKnownAnswers) {
    const auto y = mlp.infer_sample(ka.x, scratch);
    ASSERT_EQ(y.size(), 1u);
    EXPECT_EQ(y[0], ka.y) << "x = (" << ka.x[0] << ", " << ka.x[1] << ")";
  }
}

TEST(Mlp, InferSampleAddsBiasFirstUnlikeTrainingForward) {
  // The order-pinning input: the reference (bias first, k ascending) and
  // forward() (matmul, then the bias) round to different values, so the
  // reference is not interchangeable with the training forward.
  Mlp mlp = testing::make_known_answer_net();
  const auto& ka = testing::kKnownAnswers[2];
  std::vector<double> scratch(mlp.sample_scratch_size());
  EXPECT_EQ(mlp.infer_sample(ka.x, scratch)[0], 0.75 + 0x1p-53);
  EXPECT_EQ(mlp.predict_scalar(ka.x), 0.75 + 0x1p-52);
}

TEST(Mlp, InferSampleValidatesShapesAndSkipsDropout) {
  util::Rng rng(3);
  Mlp mlp = Mlp::make({3, 8, 1}, rng);
  ASSERT_EQ(mlp.sample_scratch_size(), 16u);
  std::vector<double> scratch(mlp.sample_scratch_size());
  const double x[3] = {0.1, -0.2, 0.3};
  const double before = mlp.infer_sample(x, scratch)[0];
  // Biases start at zero, so bias first and bias last agree here.
  EXPECT_EQ(before, mlp.predict_scalar(x));
  std::vector<double> small(mlp.sample_scratch_size() - 1);
  EXPECT_THROW((void)mlp.infer_sample(x, small), std::invalid_argument);
  const double narrow[2] = {0.1, -0.2};
  EXPECT_THROW((void)mlp.infer_sample(narrow, scratch), std::invalid_argument);
  // Dropout is the identity at inference.
  mlp.add(std::make_unique<Dropout>(0.5, rng.split()));
  EXPECT_EQ(mlp.infer_sample(x, scratch)[0], before);
}

TEST(Mlp, DescribeListsLayers) {
  util::Rng rng(1);
  Mlp net = Mlp::make({3, 4, 1}, rng);
  const std::string desc = net.describe();
  EXPECT_NE(desc.find("dense(3->4)"), std::string::npos);
  EXPECT_NE(desc.find("relu"), std::string::npos);
  EXPECT_NE(desc.find("dense(4->1)"), std::string::npos);
}

TEST(Mlp, MacsMatchHandCount) {
  util::Rng rng(1);
  Mlp net = Mlp::make({3, 16, 32, 16, 1}, rng);
  EXPECT_EQ(net.macs_per_sample(), 3u * 16 + 16u * 32 + 32u * 16 + 16u);
}

/// Full-network gradient check across architectures (tanh keeps the loss
/// surface smooth for finite differences).
class MlpGradCheck
    : public ::testing::TestWithParam<std::vector<std::size_t>> {};

TEST_P(MlpGradCheck, AllParameterGradientsMatchNumeric) {
  const std::vector<std::size_t> dims = GetParam();
  util::Rng rng(11);
  Mlp net = Mlp::make(dims, rng, ActivationKind::kTanh);
  Matrix x(4, dims.front());
  for (auto& v : x.data()) v = rng.uniform(-1.0, 1.0);
  Matrix target(4, dims.back());
  for (auto& v : target.data()) v = rng.uniform(-1.0, 1.0);
  const MseLoss loss;

  auto loss_fn = [&] { return loss.value(net.forward(x, true), target); };
  net.zero_grad();
  const Matrix pred = net.forward(x, true);
  net.backward(loss.grad(pred, target));

  const auto params = net.params();
  const auto grads = net.grads();
  for (std::size_t p = 0; p < params.size(); ++p) {
    const GradCheckResult result =
        check_gradient(*params[p], *grads[p], loss_fn, 1e-6);
    EXPECT_TRUE(result.passed(1e-4))
        << "param " << p << " rel diff " << result.max_rel_diff;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Architectures, MlpGradCheck,
    ::testing::Values(std::vector<std::size_t>{2, 4, 1},
                      std::vector<std::size_t>{3, 16, 32, 16, 1},
                      std::vector<std::size_t>{4, 8, 8, 2}));

TEST(MlpTraining, FitsSineFunction) {
  // End-to-end sanity: a small MLP + Adam must fit y = sin(3x) on [-1, 1].
  util::Rng rng(21);
  Mlp net = Mlp::make({1, 32, 32, 1}, rng, ActivationKind::kTanh);
  Adam opt(5e-3);
  opt.attach(net.params(), net.grads());
  const MseLoss loss;

  Matrix x(128, 1), y(128, 1);
  for (std::size_t i = 0; i < 128; ++i) {
    x(i, 0) = -1.0 + 2.0 * static_cast<double>(i) / 127.0;
    y(i, 0) = std::sin(3.0 * x(i, 0));
  }
  double final_loss = 1.0;
  for (int epoch = 0; epoch < 800; ++epoch) {
    opt.zero_grad();
    const Matrix pred = net.forward(x, true);
    final_loss = loss.value(pred, y);
    net.backward(loss.grad(pred, y));
    opt.step();
  }
  EXPECT_LT(final_loss, 1e-3);
}

}  // namespace
}  // namespace socpinn::nn
