#pragma once
// Streaming statistics used throughout the simulators and benches.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

namespace aar::util {

/// Welford's online mean / variance accumulator.  Numerically stable; O(1)
/// per observation, no storage of the sample.
class Running {
 public:
  void add(double x) noexcept {
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
  }

  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] double mean() const noexcept { return count_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two observations.
  [[nodiscard]] double variance() const noexcept {
    return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
  }
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return count_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return count_ ? max_ : 0.0; }

  /// Merge another accumulator into this one (parallel reduction).
  void merge(const Running& other) noexcept;

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Percentile `pct` in [0, 100] of an ascending sample: rank
/// pct / 100 * (n - 1), linearly interpolated between its neighbours; 0 when
/// empty.
[[nodiscard]] double percentile_sorted(std::span<const double> sorted,
                                       double pct) noexcept;

/// A stored sequence of per-block (or per-trial) values with summary helpers.
/// Used for the coverage / success series that the paper's figures plot.
class Series {
 public:
  Series() = default;
  explicit Series(std::string name) : name_(std::move(name)) {}

  void add(double x) {
    values_.push_back(x);
    running_.add(x);
  }

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::span<const double> values() const noexcept { return values_; }
  [[nodiscard]] std::size_t size() const noexcept { return values_.size(); }
  [[nodiscard]] bool empty() const noexcept { return values_.empty(); }
  [[nodiscard]] double operator[](std::size_t i) const noexcept { return values_[i]; }
  [[nodiscard]] double mean() const noexcept { return running_.mean(); }
  [[nodiscard]] double stddev() const noexcept { return running_.stddev(); }
  [[nodiscard]] double min() const noexcept { return running_.min(); }
  [[nodiscard]] double max() const noexcept { return running_.max(); }

  /// Mean over the trailing `n` values (all values if fewer are present);
  /// 0 when empty.  This is the paper's adaptive-threshold statistic.
  [[nodiscard]] double tail_mean(std::size_t n) const noexcept;

  /// Index of the first value strictly below `threshold`, or size() if none.
  [[nodiscard]] std::size_t first_below(double threshold) const noexcept;

  /// Percentile in [0, 100] by linear interpolation over the sorted sample.
  [[nodiscard]] double percentile(double pct) const;

 private:
  std::string name_;
  std::vector<double> values_;
  Running running_;
};

/// Fixed-width histogram over [lo, hi); values outside (including +-inf) are
/// clamped into the first / last bin, NaN samples are dropped (not counted in
/// total()).  Used for hop-count and message-count distributions.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x) noexcept;
  [[nodiscard]] std::size_t bins() const noexcept { return counts_.size(); }
  [[nodiscard]] std::uint64_t count(std::size_t bin) const noexcept { return counts_[bin]; }
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] double bin_lo(std::size_t bin) const noexcept;
  [[nodiscard]] double bin_hi(std::size_t bin) const noexcept;
  /// Fraction of mass at or below the upper edge of `bin`.
  [[nodiscard]] double cdf(std::size_t bin) const noexcept;

 private:
  double lo_;
  double width_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

}  // namespace aar::util
