// Fixture: fused-multiply-add in an ordinary kernel file — every EXPECT line
// must be flagged by fp-contract.
#include <cmath>

#pragma STDC FP_CONTRACT ON  // EXPECT fp-contract (pragma)

namespace fixture {

double mac(double a, double b, double c) {
  return std::fma(a, b, c);  // EXPECT fp-contract (std::fma)
}

float macf(float a, float b, float c) {
  return fmaf(a, b, c);  // EXPECT fp-contract (fmaf)
}

}  // namespace fixture
