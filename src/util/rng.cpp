#include "util/rng.hpp"

#include <cassert>
#include <cmath>

namespace aar::util {

std::uint64_t Rng::below(std::uint64_t bound) noexcept {
  assert(bound > 0);
  // Lemire's method: multiply into a 128-bit product; reject the small biased
  // fringe so every residue is equally likely.
  std::uint64_t x = (*this)();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (lo < threshold) {
      x = (*this)();
      m = static_cast<__uint128_t>(x) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Rng::exponential(double mean) noexcept {
  assert(mean > 0.0);
  double u = uniform();
  // uniform() < 1, so 1-u > 0 and the log is finite.
  return -mean * std::log1p(-u);
}

std::uint64_t Rng::geometric(double p) noexcept {
  assert(p > 0.0 && p <= 1.0);
  if (p >= 1.0) return 0;
  double u = uniform();
  return static_cast<std::uint64_t>(std::floor(std::log1p(-u) / std::log1p(-p)));
}

double Rng::normal(double mean, double stddev) noexcept {
  // Box–Muller; draw u1 away from zero to keep the log finite.
  double u1 = 0.0;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  const double u2 = uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  constexpr double kTwoPi = 6.283185307179586476925286766559;
  return mean + stddev * radius * std::cos(kTwoPi * u2);
}

std::size_t Rng::weighted(std::span<const double> weights) noexcept {
  double total = 0.0;
  for (double w : weights) total += w;
  if (total <= 0.0) return weights.size();
  double target = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    target -= weights[i];
    if (target < 0.0) return i;
  }
  return weights.size() - 1;  // numerical fringe
}

ZipfSampler::ZipfSampler(std::size_t n, double s) {
  assert(n >= 1);
  cdf_.resize(n);
  double accum = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    accum += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = accum;
  }
  const double total = cdf_.back();
  for (double& c : cdf_) c /= total;
  cdf_.back() = 1.0;  // guard against rounding drift at the top
}

std::size_t ZipfSampler::operator()(Rng& rng) const noexcept {
  const double u = rng.uniform();
  // First index whose CDF value exceeds u.
  std::size_t lo = 0;
  std::size_t hi = cdf_.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (cdf_[mid] <= u) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo < cdf_.size() ? lo : cdf_.size() - 1;
}

double ZipfSampler::pmf(std::size_t rank) const noexcept {
  if (rank >= cdf_.size()) return 0.0;
  return rank == 0 ? cdf_[0] : cdf_[rank] - cdf_[rank - 1];
}

}  // namespace aar::util
