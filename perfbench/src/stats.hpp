#pragma once
/// \file stats.hpp
/// The benchmark's own statistics: nearest-rank percentiles with a
/// tail-support rule, a log-bucket histogram for high-volume latencies,
/// open-loop lag accounting, and span self time. Header-only so the
/// benchmark and tests/selftest.cpp compile the same code.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench::stats {

/// Nearest-rank percentile of `v` (q in [0, 1]); sorts `v` in place.
/// Returns 0 for an empty sample.
inline double percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

inline double median(std::vector<double> v) { return percentile(v, 0.5); }

/// Samples strictly beyond the nearest-rank q-th percentile of n samples.
inline std::size_t samples_beyond(std::size_t n, double q) {
  if (n == 0) return 0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n)));
  return n - std::clamp<std::size_t>(rank, 1, n);
}

/// A percentile is reported only when at least ten samples lie beyond it.
inline bool tail_supported(std::size_t n, double q) {
  return samples_beyond(n, q) >= 10;
}

/// Latency histogram for streams too large to keep every sample: values
/// below 64 are exact, larger ones land in one of 64 sub-buckets per
/// power of two (relative error below 1/64). Percentiles return the
/// bucket midpoint under the same nearest-rank rule as percentile().
class LogHistogram {
 public:
  static constexpr int kSub = 64;

  void record(std::int64_t value) {
    const std::uint64_t v = value < 0 ? 0 : static_cast<std::uint64_t>(value);
    const std::size_t b = bucket(v);
    if (b >= counts_.size()) counts_.resize(b + 1, 0);
    ++counts_[b];
    ++count_;
  }

  [[nodiscard]] std::uint64_t count() const { return count_; }

  void merge(const LogHistogram& other) {
    if (other.counts_.size() > counts_.size()) {
      counts_.resize(other.counts_.size(), 0);
    }
    for (std::size_t b = 0; b < other.counts_.size(); ++b) {
      counts_[b] += other.counts_[b];
    }
    count_ += other.count_;
  }

  [[nodiscard]] double percentile(double q) const {
    if (count_ == 0) return 0.0;
    auto rank = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(count_)));
    rank = std::clamp<std::uint64_t>(rank, 1, count_);
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < counts_.size(); ++b) {
      seen += counts_[b];
      if (seen >= rank) return midpoint(b);
    }
    return midpoint(counts_.size() - 1);
  }

  [[nodiscard]] static std::size_t bucket(std::uint64_t v) {
    if (v < kSub) return static_cast<std::size_t>(v);
    const int e = 63 - __builtin_clzll(v);  // v in [2^e, 2^(e+1)), e >= 6
    const std::uint64_t sub = (v >> (e - 6)) & (kSub - 1);
    return static_cast<std::size_t>(kSub * (e - 5) + sub);
  }

  [[nodiscard]] static double midpoint(std::size_t b) {
    if (b < static_cast<std::size_t>(kSub)) return static_cast<double>(b);
    const int e = static_cast<int>(b / kSub) + 5;
    const double width = std::ldexp(1.0, e - 6);
    const double low =
        std::ldexp(1.0, e) + static_cast<double>(b % kSub) * width;
    return low + 0.5 * (width - 1.0);
  }

 private:
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
};

/// Open-loop accounting: a message is due at `due`, the generator sends it
/// at `sent` (late when it was busy), and the tick that applies it returns
/// at `applied`. Lag counts from the due time, so a stalled generator's
/// delay shows in the lag instead of hiding behind a late send.
struct OpenLoopRecorder {
  LogHistogram lag;
  LogHistogram late;

  void record_sent(std::int64_t due, std::int64_t sent) {
    late.record(sent - due);
  }
  void record_applied(std::int64_t due, std::int64_t applied) {
    lag.record(applied - due);
  }
};

/// One traced call: spans of one tick share `tick`; `parent` is the id of
/// the enclosing span, or 0 at the root (ids start at 1).
struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;
  std::uint32_t tick = 0;
  std::uint16_t name = 0;
  std::int64_t start = 0;
  std::int64_t end = 0;
};

/// Self time of every span (same order as `spans`): its duration minus
/// the part of [start, end) that its direct children cover. Overlapping
/// children count once; a child reaching outside its parent is clipped.
inline std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::size_t> order(spans.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (spans[a].parent != spans[b].parent) {
      return spans[a].parent < spans[b].parent;
    }
    return spans[a].start < spans[b].start;
  });
  std::vector<std::size_t> index_of_id;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].id >= index_of_id.size()) {
      index_of_id.resize(spans[i].id + 1, spans.size());
    }
    index_of_id[spans[i].id] = i;
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end - spans[i].start;
  }
  std::size_t k = 0;
  while (k < order.size()) {
    const std::uint32_t parent_id = spans[order[k]].parent;
    std::size_t group_end = k;
    while (group_end < order.size() &&
           spans[order[group_end]].parent == parent_id) {
      ++group_end;
    }
    if (parent_id != 0 && parent_id < index_of_id.size() &&
        index_of_id[parent_id] < spans.size()) {
      const Span& p = spans[index_of_id[parent_id]];
      std::int64_t covered = 0;
      std::int64_t run_lo = 0, run_hi = 0;
      bool open = false;
      for (std::size_t j = k; j < group_end; ++j) {
        const Span& c = spans[order[j]];
        const std::int64_t lo = std::max(c.start, p.start);
        const std::int64_t hi = std::min(c.end, p.end);
        if (hi <= lo) continue;
        if (open && lo <= run_hi) {
          run_hi = std::max(run_hi, hi);
        } else {
          if (open) covered += run_hi - run_lo;
          run_lo = lo;
          run_hi = hi;
          open = true;
        }
      }
      if (open) covered += run_hi - run_lo;
      self[index_of_id[parent_id]] -= covered;
    }
    k = group_end;
  }
  return self;
}

}  // namespace perfbench::stats
