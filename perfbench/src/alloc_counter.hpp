#pragma once
#include <cstddef>

namespace perfbench {
/// Heap allocations made so far by this process (see alloc_counter.cpp).
std::size_t alloc_count();
}  // namespace perfbench
