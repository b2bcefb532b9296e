#include "nn/panel_dispatch.hpp"

#include <cstdlib>
#include <stdexcept>
#include <string>

namespace socpinn::nn::detail {

// Each ISA's kernel table, defined by its panel_kernels_<isa>.cpp (nullptr
// when CMake does not compile that ISA for this target). All are
// constant-initialized, so no ISA-flagged code runs before isa_supported's
// CPU check.
extern constinit const simd::PanelKernels* const kScalarPanelKernels;
extern constinit const simd::PanelKernels* const kAvx2PanelKernels;
extern constinit const simd::PanelKernels* const kAvx512PanelKernels;
extern constinit const simd::PanelKernels* const kNeonPanelKernels;

}  // namespace socpinn::nn::detail

namespace socpinn::nn::simd {
namespace {

const PanelKernels* compiled_kernels(Isa isa) {
  switch (isa) {
    case Isa::kScalar: return detail::kScalarPanelKernels;
    case Isa::kAvx2: return detail::kAvx2PanelKernels;
    case Isa::kAvx512: return detail::kAvx512PanelKernels;
    case Isa::kNeon: return detail::kNeonPanelKernels;
  }
  return nullptr;
}

}  // namespace

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::kScalar: return "scalar";
    case Isa::kAvx2: return "avx2";
    case Isa::kAvx512: return "avx512";
    case Isa::kNeon: return "neon";
  }
  throw std::invalid_argument("isa_name: unknown Isa value");
}

Isa parse_isa(const char* name) {
  const std::string s(name == nullptr ? "" : name);
  if (s == "scalar") return Isa::kScalar;
  if (s == "avx2") return Isa::kAvx2;
  if (s == "avx512") return Isa::kAvx512;
  if (s == "neon") return Isa::kNeon;
  throw std::invalid_argument(
      "SOCPINN_FORCE_ISA: unknown ISA '" + s +
      "' (expected scalar, avx2, avx512, or neon)");
}

bool isa_compiled(Isa isa) { return compiled_kernels(isa) != nullptr; }

bool isa_supported(Isa isa) {
  if (!isa_compiled(isa)) return false;
  switch (isa) {
    case Isa::kScalar:
      return true;
    case Isa::kAvx2:
#if defined(__x86_64__) || defined(__i386__)
      // __builtin_cpu_supports folds in the OS XSAVE state for AVX.
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
    case Isa::kAvx512:
#if defined(__x86_64__) || defined(__i386__)
      return __builtin_cpu_supports("avx512f") != 0;
#else
      return false;
#endif
    case Isa::kNeon:
      // NEON kernels are only compiled on aarch64, where AdvSIMD is part
      // of the base architecture — compiled implies executable.
      return true;
  }
  return false;
}

Isa resolve_isa(const char* force) {
  if (force != nullptr && force[0] != '\0') {
    const Isa isa = parse_isa(force);
    if (!isa_supported(isa)) {
      throw std::invalid_argument(
          std::string("SOCPINN_FORCE_ISA=") + force + ": " +
          (isa_compiled(isa)
               ? "the host CPU cannot execute this ISA"
               : "this binary was built without these kernels"));
    }
    return isa;
  }
  if (isa_supported(Isa::kAvx512)) return Isa::kAvx512;
  if (isa_supported(Isa::kAvx2)) return Isa::kAvx2;
  if (isa_supported(Isa::kNeon)) return Isa::kNeon;
  return Isa::kScalar;
}

Isa active_isa() {
  static const Isa isa = resolve_isa(std::getenv("SOCPINN_FORCE_ISA"));
  return isa;
}

const PanelKernels& panel_kernels(Isa isa) {
  if (!isa_supported(isa)) {
    throw std::invalid_argument(std::string("panel_kernels: ISA '") +
                                isa_name(isa) +
                                "' is not supported on this binary/host");
  }
  return *compiled_kernels(isa);
}

const PanelKernels& active_panel_kernels() {
  static const PanelKernels& kernels = panel_kernels(active_isa());
  return kernels;
}

}  // namespace socpinn::nn::simd
