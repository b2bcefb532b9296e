// Fixture: code outside the owners that only mentions the aligned storage
// — in comments and strings — and keeps its buffers in MatrixT. None of
// these may be flagged.
#include "nn/matrix.hpp"

namespace fixture {

// Panels are MatrixT<T>, whose AlignedVector base sits on a cache line.
struct Panel {
  MatrixT<float> data;
};

const char* describe() { return "MatrixT storage: AlignedVector<T>"; }

/* An AlignedAllocator would be named only in nn/aligned.hpp. */

}  // namespace fixture
