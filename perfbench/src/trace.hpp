#pragma once
/// \file trace.hpp
/// In-memory span recorder for the traced run. The benchmark opens a span
/// around each of its calls into a layer; spans stay in a preallocated
/// buffer and are written out once, when the run ends. A disabled tracer
/// records nothing, so untraced runs pay one predictable branch per call.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  explicit Tracer(bool enabled, std::size_t capacity = 0) : enabled_(enabled) {
    if (enabled_) spans_.reserve(capacity);
  }

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Interns a span name; call during set-up, not per span.
  std::uint16_t name(const std::string& n) {
    for (std::size_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == n) return static_cast<std::uint16_t>(i);
    }
    names_.push_back(n);
    return static_cast<std::uint16_t>(names_.size() - 1);
  }

  /// Starts a new tick: spans opened from now on share its id.
  void begin_tick() { ++tick_; }

  /// RAII span; a no-op when the tracer is disabled or full.
  class Scope {
   public:
    Scope(Tracer& t, std::uint16_t name) : t_(t) {
      if (!t_.enabled_ || t_.spans_.size() == t_.spans_.capacity()) return;
      index_ = t_.spans_.size();
      stats::Span s;
      s.id = static_cast<std::uint32_t>(index_ + 1);
      s.parent = t_.open_;
      s.tick = t_.tick_;
      s.name = name;
      t_.spans_.push_back(s);
      t_.open_ = s.id;
      t_.spans_[index_].start = now_ns();
      active_ = true;
    }
    ~Scope() {
      if (!active_) return;
      stats::Span& s = t_.spans_[index_];
      s.end = now_ns();
      t_.open_ = s.parent;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    std::size_t index_ = 0;
    bool active_ = false;
  };

  [[nodiscard]] const std::vector<stats::Span>& spans() const {
    return spans_;
  }

  /// Durations (ns) of every span named `name`.
  [[nodiscard]] std::vector<double> durations(std::uint16_t name) const {
    std::vector<double> out;
    for (const stats::Span& s : spans_) {
      if (s.name == name) out.push_back(static_cast<double>(s.end - s.start));
    }
    return out;
  }

  /// Writes every span as CSV: id,parent,tick,name,start_ns,end_ns,self_ns.
  bool write_csv(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::vector<std::int64_t> self = stats::self_times(spans_);
    std::fprintf(f, "id,parent,tick,name,start_ns,end_ns,self_ns\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const stats::Span& s = spans_[i];
      std::fprintf(f, "%u,%u,%u,%s,%lld,%lld,%lld\n", s.id, s.parent, s.tick,
                   names_[s.name].c_str(), static_cast<long long>(s.start),
                   static_cast<long long>(s.end),
                   static_cast<long long>(self[i]));
    }
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_;
  std::vector<stats::Span> spans_;
  std::vector<std::string> names_;
  std::uint32_t open_ = 0;
  std::uint32_t tick_ = 0;
};

}  // namespace perfbench
