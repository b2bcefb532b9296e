#pragma once
// Fixture standing in for the real nn/simd.hpp: the lane layer gets no
// exemption — a fused multiply-add there breaks cross-ISA bitwise parity
// like anywhere else, so every EXPECT line must be flagged by fp-contract.
#include <cmath>

namespace fixture {

inline double fused(double a, double b, double c) {
  return std::fma(a, b, c);  // EXPECT fp-contract (std::fma)
}

}  // namespace fixture
