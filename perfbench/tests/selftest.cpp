/// Self-tests of the benchmark's own statistics (src/stats.hpp): the
/// tail-support rule behind every reported percentile, span self time, and
/// open-loop lag counted from the due time. perfbench/run.py runs this
/// binary before every measurement and refuses to report if it fails.
/// Exit code 0 when every check passes.

#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++g_failures;
  }
}

using perfbench::stats::LogHistogram;
using perfbench::stats::OpenLoopRecorder;
using perfbench::stats::Span;

void percentile_selection() {
  // 1..1000: the p99 is the 990th value and ten samples lie beyond it.
  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) v.push_back(i);
  check(perfbench::stats::percentile(v, 0.99) == 990.0, "p99 of 1..1000");
  check(perfbench::stats::percentile(v, 0.5) == 500.0, "p50 of 1..1000");
  check(perfbench::stats::samples_beyond(1000, 0.99) == 10,
        "ten samples beyond p99 of 1000");
  check(perfbench::stats::tail_supported(1000, 0.99),
        "p99 supported at n = 1000");
  check(!perfbench::stats::tail_supported(999, 0.99),
        "p99 unsupported at n = 999 (nine beyond)");
  check(!perfbench::stats::tail_supported(100, 0.99),
        "p99 unsupported at n = 100");
  check(perfbench::stats::tail_supported(20, 0.5), "p50 supported at n = 20");
  std::vector<double> one{7.0};
  check(perfbench::stats::percentile(one, 0.99) == 7.0, "single sample");

  // The histogram agrees with the exact percentile within its resolution.
  LogHistogram h;
  std::vector<double> exact;
  for (int i = 0; i < 20000; ++i) {
    const auto x = static_cast<std::int64_t>(1000 + (i * 7919) % 500000);
    h.record(x);
    exact.push_back(static_cast<double>(x));
  }
  for (const double q : {0.5, 0.9, 0.99}) {
    const double want = perfbench::stats::percentile(exact, q);
    check(std::fabs(h.percentile(q) - want) <= want / 60.0,
          "histogram percentile within 1/60 of exact");
  }
  LogHistogram small;
  for (int i = 0; i < 64; ++i) small.record(i);
  check(small.percentile(0.5) == 31.0, "histogram exact below 64");
}

void span_self_time() {
  // root [0, 100) with children [10, 30), [20, 50) (overlap counted once)
  // and [90, 120) (clipped to the root), grandchild [12, 18) inside the
  // first child.
  std::vector<Span> spans = {
      {1, 0, 1, 0, 0, 100},  {2, 1, 1, 1, 10, 30},  {3, 1, 1, 1, 20, 50},
      {4, 1, 1, 2, 90, 120}, {5, 2, 1, 3, 12, 18},
  };
  const std::vector<std::int64_t> self = perfbench::stats::self_times(spans);
  check(self[0] == 100 - 40 - 10, "root self time = 100 - [10,50) - [90,100)");
  check(self[1] == 20 - 6, "child self time minus grandchild");
  check(self[2] == 30, "leaf self time is its duration");
  check(self[3] == 30, "leaf outside parent keeps its own duration");
  check(self[4] == 6, "grandchild self time");
}

void open_loop_lag() {
  // A message due at t = 1000 that the busy generator only sends at 1500
  // and that a tick returning at 1700 applies: its lag is 700, not 200.
  OpenLoopRecorder r;
  r.record_sent(1000, 1500);
  r.record_applied(1000, 1700);
  check(r.lag.percentile(0.5) == LogHistogram::midpoint(
                                     LogHistogram::bucket(700)),
        "lag counted from due time");
  check(r.late.percentile(0.5) == LogHistogram::midpoint(
                                      LogHistogram::bucket(500)),
        "generator lateness recorded separately");
  check(LogHistogram::bucket(700) != LogHistogram::bucket(200),
        "lag buckets distinguish due-based from send-based lag");
}

}  // namespace

int main() {
  percentile_selection();
  span_self_time();
  open_loop_lag();
  if (g_failures == 0) std::printf("perfbench selftest: ok\n");
  return g_failures == 0 ? 0 : 1;
}
