#include "nn/serialize.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "util/rng.hpp"

namespace socpinn::nn {
namespace {

TEST(SerializeMlp, RoundTripPreservesPredictions) {
  util::Rng rng(9);
  Mlp net = Mlp::make({3, 16, 32, 16, 1}, rng);
  std::stringstream stream;
  save_mlp(stream, net);
  Mlp loaded = load_mlp(stream);

  util::Rng probe_rng(10);
  for (int trial = 0; trial < 20; ++trial) {
    double features[3];
    for (double& f : features) f = probe_rng.uniform(-2.0, 2.0);
    EXPECT_DOUBLE_EQ(loaded.predict_scalar(features),
                     net.predict_scalar(features));
  }
}

TEST(SerializeMlp, RoundTripPreservesStructure) {
  util::Rng rng(11);
  Mlp net = Mlp::make({4, 8, 2}, rng, ActivationKind::kTanh);
  std::stringstream stream;
  save_mlp(stream, net);
  Mlp loaded = load_mlp(stream);
  EXPECT_EQ(loaded.num_layers(), net.num_layers());
  EXPECT_EQ(loaded.num_params(), net.num_params());
  EXPECT_EQ(loaded.describe(), net.describe());
}

TEST(SerializeMlp, RejectsGarbageInput) {
  std::stringstream stream("not-a-model 1");
  EXPECT_THROW((void)load_mlp(stream), std::runtime_error);
}

TEST(SerializeMlp, RejectsWrongVersion) {
  std::stringstream stream("socpinn-mlp 99\n0\n");
  EXPECT_THROW((void)load_mlp(stream), std::runtime_error);
}

TEST(SerializeMlp, RejectsTruncatedStream) {
  util::Rng rng(12);
  Mlp net = Mlp::make({2, 4, 1}, rng);
  std::stringstream stream;
  save_mlp(stream, net);
  const std::string full = stream.str();
  std::stringstream truncated(full.substr(0, full.size() / 2));
  EXPECT_THROW((void)load_mlp(truncated), std::runtime_error);
}

TEST(SerializeMlp, RejectsMatrixHeaderLargerThanItsData) {
  // 2^32 x 2^32 wraps rows*cols to 0 and 2^32 x (2^32 + 1) to 2^32, and
  // SIZE_MAX x 2 wraps too: the load must throw, not write through an empty
  // buffer or size memory from the header. SIZE_MAX x 0 is empty and must
  // not walk SIZE_MAX rows.
  for (const char* header :
       {"4294967296 4294967296", "4294967296 4294967297",
        "18446744073709551615 2", "1000000 1000000",
        "18446744073709551615 0"}) {
    std::stringstream stream(std::string("socpinn-mlp 1\n1\ndense\n") +
                             header + "\n1 2 3\n");
    EXPECT_THROW((void)load_mlp(stream), std::exception) << header;
  }
}

TEST(SerializeScaler, RoundTrips) {
  StandardScaler scaler =
      StandardScaler::from_moments({1.0, -2.5}, {0.1, 3.0});
  std::stringstream stream;
  save_scaler(stream, scaler);
  const StandardScaler loaded = load_scaler(stream);
  EXPECT_EQ(loaded.means(), scaler.means());
  EXPECT_EQ(loaded.stds(), scaler.stds());
}

TEST(SerializeScaler, RejectsUnfitted) {
  StandardScaler scaler;
  std::stringstream stream;
  EXPECT_THROW(save_scaler(stream, scaler), std::runtime_error);
}

TEST(SerializeScaler, RejectsBadHeader) {
  std::stringstream stream("wrong 1 2\n");
  EXPECT_THROW((void)load_scaler(stream), std::runtime_error);
}

TEST(SerializeScaler, RejectsFeatureCountLargerThanItsData) {
  // The count is read from the stream; it must not size an allocation.
  for (const char* count : {"1000000000000", "18446744073709551615"}) {
    std::stringstream stream(std::string("socpinn-scaler 1\n") + count +
                             "\n1 2\n3 4\n");
    EXPECT_THROW((void)load_scaler(stream), std::exception) << count;
  }
}

TEST(SerializeMlp, FileRoundTrip) {
  util::Rng rng(13);
  Mlp net = Mlp::make({2, 4, 1}, rng);
  const std::string path = ::testing::TempDir() + "socpinn_mlp_test.txt";
  save_mlp_file(path, net);
  Mlp loaded = load_mlp_file(path);
  double features[2] = {0.5, -0.5};
  EXPECT_DOUBLE_EQ(loaded.predict_scalar(features),
                   net.predict_scalar(features));
  std::remove(path.c_str());
}

TEST(SerializeMlp, FileErrorsThrow) {
  util::Rng rng(1);
  Mlp net = Mlp::make({2, 2}, rng);
  EXPECT_THROW(save_mlp_file("/nonexistent/dir/model.txt", net),
               std::runtime_error);
  EXPECT_THROW((void)load_mlp_file("/nonexistent/model.txt"),
               std::runtime_error);
}

}  // namespace
}  // namespace socpinn::nn
