// Fixture: an engine re-implementing the thin-panel pad that
// nn::forward_blocked owns — every line tagged EXPECT must be flagged by
// pad-policy.
#include <algorithm>
#include <cstddef>

#include "nn/panel.hpp"

namespace fixture {

template <typename T>
void stage(socpinn::nn::MatrixT<T>& input, std::size_t count) {
  input.resize(4, std::max(count, socpinn::nn::kColumnsMinBatch));  // EXPECT pad-policy
}

// A local alias hides nothing: the name itself is the policy.
using socpinn::nn::kColumnsMinBatch;  // EXPECT pad-policy

}  // namespace fixture
