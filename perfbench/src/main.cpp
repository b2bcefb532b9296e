/// perfbench: runs one serve workload and prints its result.
///
///   perfbench --workload <name> --seed <n> --seconds <s>
///             --trace <0|1> [--commit <sha>] [--spans <path>]
///
/// Prints a summary line (provenance, roofline context, sample counts,
/// failed_ratio and the first failed checks) and, as the last line, the
/// result object {"correct", "attempted", "failed", "metrics"}: the
/// end-to-end metrics untraced, the per-layer metrics with --trace 1.
/// Exit code 0 when the run completed (correct or not), 2 on bad usage.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "workloads.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_NATIVE
#define PERFBENCH_NATIVE 0
#endif

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string read_first_line(const char* path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

/// L2 size in KiB, from sysconf or sysfs.
long l2_kib() {
  const long bytes = sysconf(_SC_LEVEL2_CACHE_SIZE);
  if (bytes > 0) return bytes / 1024;
  const std::string s =
      read_first_line("/sys/devices/system/cpu/cpu0/cache/index2/size");
  if (s.empty()) return 0;
  long v = std::strtol(s.c_str(), nullptr, 10);
  if (s.find('M') != std::string::npos) v *= 1024;
  return v;
}

/// Nominal core clock in GHz: the cpufreq base frequency when exposed,
/// else the first "cpu MHz" of /proc/cpuinfo.
double clock_ghz() {
  const std::string base =
      read_first_line("/sys/devices/system/cpu/cpu0/cpufreq/base_frequency");
  if (!base.empty()) return std::strtod(base.c_str(), nullptr) / 1e6;
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("cpu MHz", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return std::strtod(line.c_str() + colon + 1, nullptr) / 1e3;
      }
    }
  }
  return 0.0;
}

/// Vector lanes per register for the active panel-kernel ISA.
int lanes(const std::string& isa, bool f32) {
  int bits = 128;  // scalar source at the SSE2/NEON baseline
  if (isa == "avx512") bits = 512;
  if (isa == "avx2") bits = 256;
  return bits / (f32 ? 32 : 64);
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<name> --seed <n> --seconds <s> --trace <0|1> "
               "[--commit <sha>] [--spans <path>]\n",
               msg);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  std::string commit = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const char* val = argv[++i];
    if (a == "--workload") {
      opt.workload = val;
      have_workload = true;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(val, nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(val, nullptr);
    } else if (a == "--trace") {
      opt.trace = std::strcmp(val, "0") != 0;
    } else if (a == "--commit") {
      commit = val;
    } else if (a == "--spans") {
      opt.span_path = val;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(opt.seconds > 0.0)) usage("--seconds must be positive");
  bool known = false;
  for (const std::string& w : perfbench::workload_names()) {
    known = known || w == opt.workload;
  }
  if (!known) usage(("unknown workload " + opt.workload).c_str());

  const perfbench::RunResult r = perfbench::run_workload(opt);
  const bool correct = r.failed == 0 && r.tails_supported;

  // Summary line: provenance, roofline context, counts.
  const bool f32 = r.f32;
  const double ghz = clock_ghz();
  const int vlanes = lanes(r.isa, f32);
  std::string s = "{\"summary\": {\"workload\": " + json_string(opt.workload);
  s += ", \"trace\": " + std::string(opt.trace ? "1" : "0");
  s += ", \"provenance\": {\"compiler\": " + json_string(PERFBENCH_COMPILER);
  s += ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE);
  s += ", \"SOCPINN_NATIVE\": " + std::string(PERFBENCH_NATIVE ? "true" : "false");
  s += ", \"simd_isa\": " + json_string(r.isa);
  s += ", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  s += ", \"l2_kib\": " + std::to_string(l2_kib());
  s += ", \"git_commit\": " + json_string(commit);
  s += ", \"seed\": " + std::to_string(opt.seed) + "}";
  s += ", \"roofline\": {\"precision\": " + json_string(f32 ? "f32" : "f64");
  s += ", \"clock_ghz\": " + json_number(ghz);
  s += ", \"vector_lanes\": " + std::to_string(vlanes);
  s += ", \"nominal_peak_gmacs\": " + json_number(vlanes * ghz);
  s += ", \"note\": \"nominal: one unfused vector multiply-add per cycle "
       "(-ffp-contract=off); MACs and bytes are computed from the layer "
       "shapes, not measured\"}";
  s += ", \"context\": {";
  for (std::size_t i = 0; i < r.context.size(); ++i) {
    if (i) s += ", ";
    s += json_string(r.context[i].name) + ": {\"value\": " +
         json_number(r.context[i].value) +
         ", \"unit\": " + json_string(r.context[i].unit) + "}";
  }
  s += "}, \"tails_supported\": " + std::string(r.tails_supported ? "true" : "false");
  s += ", \"failures\": [";
  for (std::size_t i = 0; i < r.failures.size(); ++i) {
    if (i) s += ", ";
    s += json_string(r.failures[i]);
  }
  s += "]}}";
  std::printf("%s\n", s.c_str());

  std::string out = "{\"correct\": " + std::string(correct ? "true" : "false");
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    if (i) out += ", ";
    out += json_string(r.metrics[i].name) + ": {\"value\": " +
           json_number(r.metrics[i].value) +
           ", \"unit\": " + json_string(r.metrics[i].unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}
