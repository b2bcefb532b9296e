#pragma once
/// \file workloads.hpp
/// The four serve workloads. Each builds its inputs from the seed, drives
/// the serve stack through its public API, checks every output, and
/// returns the end-to-end metrics (untraced run) or the per-layer metrics
/// (traced run).

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  std::vector<Metric> metrics;  ///< end-to-end, or per-layer when traced
  std::vector<Metric> context;  ///< sample counts, roofline, failed_ratio
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool tails_supported = true;  ///< every p99 has >= 10 samples beyond it
  std::string isa;              ///< FleetEngine::simd_isa()
  bool f32 = false;             ///< the main phase serves f32
  std::vector<std::string> failures;  ///< first few failed checks, for logs
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string span_path;  ///< where a traced run writes its spans
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Throws std::invalid_argument for an unknown workload.
[[nodiscard]] RunResult run_workload(const RunOptions& options);

}  // namespace perfbench
