#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/rng.hpp"

namespace socpinn::util {
namespace {

TEST(Stats, MeanOfKnownValues) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
}

TEST(Stats, MeanThrowsOnEmpty) {
  EXPECT_THROW((void)mean({}), std::invalid_argument);
}

TEST(Stats, VarianceUnbiased) {
  const std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  // Sample variance with n-1 denominator = 32/7.
  EXPECT_NEAR(variance(xs), 32.0 / 7.0, 1e-12);
}

TEST(Stats, VarianceNeedsTwoSamples) {
  const std::vector<double> xs{1.0};
  EXPECT_THROW((void)variance(xs), std::invalid_argument);
}

TEST(Stats, MinMax) {
  const std::vector<double> xs{3.0, -1.0, 7.5, 0.0};
  EXPECT_DOUBLE_EQ(min_of(xs), -1.0);
  EXPECT_DOUBLE_EQ(max_of(xs), 7.5);
}

TEST(Stats, MedianOddAndEven) {
  EXPECT_DOUBLE_EQ(median(std::vector<double>{3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median(std::vector<double>{4.0, 1.0, 2.0, 3.0}), 2.5);
}

TEST(Stats, QuantileEndpoints) {
  const std::vector<double> xs{5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 5.0);
}

TEST(Stats, QuantileInterpolates) {
  const std::vector<double> xs{0.0, 10.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.25), 2.5);
}

TEST(Stats, QuantileRejectsOutOfRange) {
  const std::vector<double> xs{1.0, 2.0};
  EXPECT_THROW((void)quantile(xs, 1.5), std::invalid_argument);
  EXPECT_THROW((void)quantile(xs, std::nan("")), std::invalid_argument);
}

TEST(RunningStats, MatchesBatchFormulas) {
  Rng rng(13);
  std::vector<double> xs;
  RunningStats rs;
  for (int i = 0; i < 5000; ++i) {
    const double x = rng.normal(3.0, 1.5);
    xs.push_back(x);
    rs.push(x);
  }
  EXPECT_NEAR(rs.mean(), mean(xs), 1e-9);
  EXPECT_NEAR(rs.variance(), variance(xs), 1e-9);
  EXPECT_DOUBLE_EQ(rs.min(), min_of(xs));
  EXPECT_DOUBLE_EQ(rs.max(), max_of(xs));
  EXPECT_EQ(rs.count(), xs.size());
}

TEST(RunningStats, MergeEquivalentToSequential) {
  Rng rng(29);
  RunningStats all, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-5.0, 5.0);
    all.push(x);
    (i < 400 ? a : b).push(x);
  }
  a.merge(b);
  EXPECT_NEAR(a.mean(), all.mean(), 1e-10);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_EQ(a.count(), all.count());
}

TEST(RunningStats, MergeWithEmptyIsNoOp) {
  RunningStats a, empty;
  a.push(1.0);
  a.push(3.0);
  a.merge(empty);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  EXPECT_EQ(a.count(), 2u);
}

TEST(RunningStats, ThrowsWithoutSamples) {
  RunningStats rs;
  EXPECT_THROW((void)rs.mean(), std::logic_error);
  EXPECT_THROW((void)rs.min(), std::logic_error);
}

TEST(Stats, SummarizeMentionsAllFields) {
  const std::vector<double> xs{1.0, 2.0, 3.0};
  const std::string s = summarize(xs);
  EXPECT_NE(s.find("mean="), std::string::npos);
  EXPECT_NE(s.find("min="), std::string::npos);
  EXPECT_NE(s.find("max="), std::string::npos);
  EXPECT_NE(s.find("n=3"), std::string::npos);
}

}  // namespace
}  // namespace socpinn::util
