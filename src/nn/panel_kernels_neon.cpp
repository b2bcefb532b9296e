/// \file panel_kernels_neon.cpp
/// NEON (aarch64 AdvSIMD) kernel table: the simd::Vec tile body at 4 f32 /
/// 2 f64 lanes per q register, 4 vectors per accumulator row (32
/// registers, like AVX-512). AdvSIMD is part of the aarch64 base
/// architecture, so no per-file flags are needed — SOCPINN_ENABLE_NEON is
/// simply defined when CMake targets aarch64, and compiled implies
/// executable. simd.hpp's mul_add stays unfused here too (-ffp-contract=off
/// keeps the compiler from emitting fmla), so results stay bitwise
/// identical to the scalar reference.

#include "nn/panel_dispatch.hpp"
#include "nn/panel_kernels_simd.hpp"

namespace socpinn::nn::detail {

#if defined(SOCPINN_ENABLE_NEON)
namespace {
constinit const simd::PanelKernels kTable = {
    &dense_columns_kernel_vec<simd::Vec<float, 4, 4>>,
    &dense_columns_kernel_vec<simd::Vec<double, 2, 4>>};
}  // namespace
extern constinit const simd::PanelKernels* const kNeonPanelKernels = &kTable;
#else
extern constinit const simd::PanelKernels* const kNeonPanelKernels = nullptr;
#endif

}  // namespace socpinn::nn::detail
