#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace socpinn::util {

namespace {
void require_nonempty(std::span<const double> xs, const char* who) {
  if (xs.empty()) {
    throw std::invalid_argument(std::string(who) + ": empty input");
  }
}
}  // namespace

double mean(std::span<const double> xs) {
  require_nonempty(xs, "mean");
  double acc = 0.0;
  for (double x : xs) acc += x;
  return acc / static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) {
  if (xs.size() < 2) throw std::invalid_argument("variance: need >= 2 samples");
  const double m = mean(xs);
  double acc = 0.0;
  for (double x : xs) acc += (x - m) * (x - m);
  return acc / static_cast<double>(xs.size() - 1);
}

double stddev(std::span<const double> xs) { return std::sqrt(variance(xs)); }

double min_of(std::span<const double> xs) {
  require_nonempty(xs, "min_of");
  return *std::min_element(xs.begin(), xs.end());
}

double max_of(std::span<const double> xs) {
  require_nonempty(xs, "max_of");
  return *std::max_element(xs.begin(), xs.end());
}

double quantile(std::span<const double> xs, double q) {
  require_nonempty(xs, "quantile");
  // Written so that NaN fails too: a NaN q would reach the size_t cast.
  if (!(q >= 0.0 && q <= 1.0)) {
    throw std::invalid_argument("quantile: q outside [0,1]");
  }
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double median(std::span<const double> xs) { return quantile(xs, 0.5); }

void RunningStats::push(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::mean() const {
  if (n_ == 0) throw std::logic_error("RunningStats::mean: no samples");
  return mean_;
}

double RunningStats::variance() const {
  if (n_ < 2) throw std::logic_error("RunningStats::variance: need >= 2");
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::min() const {
  if (n_ == 0) throw std::logic_error("RunningStats::min: no samples");
  return min_;
}

double RunningStats::max() const {
  if (n_ == 0) throw std::logic_error("RunningStats::max: no samples");
  return max_;
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const auto na = static_cast<double>(n_);
  const auto nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

std::string summarize(std::span<const double> xs) {
  std::ostringstream out;
  out << "mean=" << mean(xs);
  if (xs.size() >= 2) out << " std=" << stddev(xs);
  out << " min=" << min_of(xs) << " max=" << max_of(xs) << " n=" << xs.size();
  return out.str();
}

}  // namespace socpinn::util
