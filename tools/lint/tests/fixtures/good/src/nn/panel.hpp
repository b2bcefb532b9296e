// Fixture: the owner of the pad policy may define and use the tile width.
#include <cstddef>

namespace fixture {

inline constexpr std::size_t kColumnsMinBatch = 32;

inline std::size_t staged_width(std::size_t n) {
  return n < kColumnsMinBatch ? kColumnsMinBatch : n;
}

}  // namespace fixture
