/// \file panel_kernels_scalar.cpp
/// The portable dispatch fallback and the parity reference every vector
/// kernel is measured against: the scalar template of panel_kernels.hpp,
/// instantiated here at both serve precisions and compiled at the build's
/// baseline ISA (so a NATIVE build still autovectorizes it — "scalar"
/// means scalar SOURCE, not scalar code). The library builds with
/// -ffp-contract=off, so this TU's arithmetic is the exact two-rounding
/// multiply-add sequence the vector kernels reproduce lane-by-lane.

#include "nn/panel_dispatch.hpp"
#include "nn/panel_kernels.hpp"

namespace socpinn::nn::detail {

namespace {
constinit const simd::PanelKernels kTable = {&dense_columns_kernel<float>,
                                             &dense_columns_kernel<double>};
}  // namespace
extern constinit const simd::PanelKernels* const kScalarPanelKernels = &kTable;

}  // namespace socpinn::nn::detail
