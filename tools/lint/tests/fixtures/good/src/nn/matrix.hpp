// Fixture: the one dense-matrix class holds the aligned storage.
#include <cstddef>

#include "nn/aligned.hpp"

namespace fixture {

template <typename T>
class MatrixT {
 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  AlignedVector<T> data_;
};

}  // namespace fixture
