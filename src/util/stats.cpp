#include "util/stats.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace aar::util {

double Running::stddev() const noexcept { return std::sqrt(variance()); }

void Running::merge(const Running& other) noexcept {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const auto na = static_cast<double>(count_);
  const auto nb = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = na + nb;
  mean_ += delta * nb / n;
  m2_ += other.m2_ + delta * delta * na * nb / n;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double Series::tail_mean(std::size_t n) const noexcept {
  if (values_.empty()) return 0.0;
  const std::size_t take = std::min(n, values_.size());
  double sum = 0.0;
  for (std::size_t i = values_.size() - take; i < values_.size(); ++i) {
    sum += values_[i];
  }
  return sum / static_cast<double>(take);
}

std::size_t Series::first_below(double threshold) const noexcept {
  for (std::size_t i = 0; i < values_.size(); ++i) {
    if (values_[i] < threshold) return i;
  }
  return values_.size();
}

double percentile_sorted(std::span<const double> sorted, double pct) noexcept {
  if (sorted.empty()) return 0.0;
  const double clamped = std::clamp(pct, 0.0, 100.0);
  const double pos = clamped / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double Series::percentile(double pct) const {
  std::vector<double> sorted(values_.begin(), values_.end());
  std::sort(sorted.begin(), sorted.end());
  return percentile_sorted(sorted, pct);
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), width_((hi - lo) / static_cast<double>(bins)), counts_(bins, 0) {
  assert(hi > lo && bins > 0);
}

void Histogram::add(double x) noexcept {
  // Classify in floating point *before* any integer cast: a NaN sample, or a
  // finite sample whose bin index exceeds the integer range, would make the
  // float->int conversion undefined (and NaN makes clamp's comparisons
  // unspecified).  NaN has no meaningful bin and is dropped; everything else
  // (including +-inf) clamps into the edge bins as documented.
  if (std::isnan(x)) return;
  const double pos = (x - lo_) / width_;
  std::size_t bin;
  if (!(pos > 0.0)) {
    bin = 0;
  } else if (pos >= static_cast<double>(counts_.size())) {
    bin = counts_.size() - 1;
  } else {
    bin = static_cast<std::size_t>(pos);
  }
  ++counts_[bin];
  ++total_;
}

double Histogram::bin_lo(std::size_t bin) const noexcept {
  return lo_ + width_ * static_cast<double>(bin);
}

double Histogram::bin_hi(std::size_t bin) const noexcept {
  return lo_ + width_ * static_cast<double>(bin + 1);
}

double Histogram::cdf(std::size_t bin) const noexcept {
  if (total_ == 0) return 0.0;
  std::uint64_t below = 0;
  for (std::size_t i = 0; i <= bin && i < counts_.size(); ++i) below += counts_[i];
  return static_cast<double>(below) / static_cast<double>(total_);
}

}  // namespace aar::util
