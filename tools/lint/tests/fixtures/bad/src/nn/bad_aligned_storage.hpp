// Fixture: a second aligned dense carrier next to nn::MatrixT — every line
// tagged EXPECT must be flagged by aligned-storage.
#include <cstddef>
#include <vector>

#include "nn/aligned.hpp"

namespace fixture {

// A serve-side panel type with its own storage, reshape and allocation.
template <typename T>
class PanelT {
 public:
  void resize(std::size_t rows, std::size_t cols) {
    data_.resize(rows * cols);
  }

 private:
  socpinn::nn::AlignedVector<T> data_;  // EXPECT aligned-storage
};

// Spelling out the allocator is the same duplicate.
using Buffer =
    std::vector<float, socpinn::nn::AlignedAllocator<float>>;  // EXPECT aligned-storage

}  // namespace fixture
