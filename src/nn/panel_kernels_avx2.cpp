/// \file panel_kernels_avx2.cpp
/// AVX2 kernel table: the simd::Vec tile body at 8 f32 / 4 f64 lanes per
/// ymm register, 2 vectors per accumulator row (16 registers hold the 4x2
/// tile plus loads and a broadcast). This TU (and only this TU) is
/// compiled with -mavx2 on x86 — the rest of the library stays at the
/// build's baseline ISA — so its kernels must only be reached through the
/// runtime dispatcher after a cpuid check (nn/panel_dispatch.cpp). The
/// table is constant-initialized, so no AVX2 code runs before that check;
/// it is nullptr when CMake does not compile AVX2 for this target.

#include "nn/panel_dispatch.hpp"
#include "nn/panel_kernels_simd.hpp"

namespace socpinn::nn::detail {

#if defined(SOCPINN_ENABLE_AVX2)
namespace {
constinit const simd::PanelKernels kTable = {
    &dense_columns_kernel_vec<simd::Vec<float, 8, 2>>,
    &dense_columns_kernel_vec<simd::Vec<double, 4, 2>>};
}  // namespace
extern constinit const simd::PanelKernels* const kAvx2PanelKernels = &kTable;
#else
extern constinit const simd::PanelKernels* const kAvx2PanelKernels = nullptr;
#endif

}  // namespace socpinn::nn::detail
