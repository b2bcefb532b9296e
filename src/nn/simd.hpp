#pragma once
/// \file simd.hpp
/// Lane type behind the vectorized panel kernels: ONE Vec<T, W, kTileVecs>
/// over a GCC/Clang `vector_size` vector of W lanes of T, with load /
/// broadcast / store and a free mul_add. It carries no intrinsics: the
/// per-ISA translation units (panel_kernels_<isa>.cpp) compile the one tile
/// body (panel_kernels_simd.hpp) with their ISA's flags and pick W and
/// kTileVecs for their register file, so the compiler lowers the same
/// source to ymm, zmm or q registers. Name a width only in the TU compiled
/// with its ISA's flags.
///
/// Parity contract: mul_add is deliberately UNFUSED — a vector multiply
/// followed by a vector add, two roundings, exactly the scalar template's
/// `acc += wk * a`, because the build applies -ffp-contract=off globally
/// (see CMakeLists.txt). That is what makes every ISA's kernels bitwise
/// identical to the scalar reference at f64 and f32 on every host. Never
/// fuse it (tests/nn/test_simd_dispatch.cpp pins the contract).

#include <cstring>

namespace socpinn::nn::simd {

/// W lanes of T in one register. TileVecs is the number of vectors per
/// accumulator row in the kernel's register tile (16 registers -> 2,
/// 32 registers -> 4).
template <typename T, int W, int TileVecs>
struct Vec {
  // The typedef form keeps the attribute on a dependent T; the alias form
  // (`using Raw = T __attribute__(...)`) may silently drop it and yield a
  // scalar, which the assertion below rejects.
  typedef T Raw __attribute__((vector_size(W * sizeof(T))));
  static_assert(sizeof(Raw) == W * sizeof(T),
                "vector_size attribute dropped: Raw is not W lanes wide");

  using Scalar = T;
  static constexpr int kWidth = W;
  static constexpr int kTileVecs = TileVecs;
  Raw v;

  static Vec load(const T* p) {
    Vec r;
    std::memcpy(&r.v, p, sizeof(Raw));
    return r;
  }
  // x - (+0) is x exactly, -0 included; compilers fold it to a broadcast.
  static Vec broadcast(T x) { return {x - Raw{}}; }
  void store(T* p) const { std::memcpy(p, &v, sizeof(Raw)); }
};

/// acc + a * b, two roundings (see the parity contract above).
template <typename T, int W, int TileVecs>
inline Vec<T, W, TileVecs> mul_add(Vec<T, W, TileVecs> a,
                                   Vec<T, W, TileVecs> b,
                                   Vec<T, W, TileVecs> acc) {
  return {acc.v + a.v * b.v};
}

}  // namespace socpinn::nn::simd
