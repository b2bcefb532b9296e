// Fixture: the owner of the aligned storage may define and name it.
#include <cstddef>
#include <new>
#include <vector>

namespace fixture {

template <typename T>
struct AlignedAllocator {
  using value_type = T;
  T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T), std::align_val_t{64}));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{64});
  }
};

template <typename T>
using AlignedVector = std::vector<T, AlignedAllocator<T>>;

}  // namespace fixture
