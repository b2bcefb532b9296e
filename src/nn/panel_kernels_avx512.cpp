/// \file panel_kernels_avx512.cpp
/// AVX-512F kernel table: the simd::Vec tile body at 16 f32 / 8 f64 lanes
/// per zmm register, 4 vectors per accumulator row (32 registers hold the
/// 4x4 tile), so one pass covers 64 f32 / 32 f64 batch columns — the
/// scalar template's exact tile widths. Compiled with -mavx512f on x86
/// (this TU only; see panel_kernels_avx2.cpp for the dispatch and
/// isolation rules).

#include "nn/panel_dispatch.hpp"
#include "nn/panel_kernels_simd.hpp"

namespace socpinn::nn::detail {

#if defined(SOCPINN_ENABLE_AVX512)
namespace {
constinit const simd::PanelKernels kTable = {
    &dense_columns_kernel_vec<simd::Vec<float, 16, 4>>,
    &dense_columns_kernel_vec<simd::Vec<double, 8, 4>>};
}  // namespace
extern constinit const simd::PanelKernels* const kAvx512PanelKernels = &kTable;
#else
extern constinit const simd::PanelKernels* const kAvx512PanelKernels = nullptr;
#endif

}  // namespace socpinn::nn::detail
