#pragma once
// Deterministic pseudo-random number generation for simulations.
//
// All stochastic components of the library (trace generation, topology
// construction, workload models, routing policies) draw from aar::util::Rng so
// that every experiment is reproducible from a single 64-bit seed.  The
// generator is xoshiro256** (Blackman & Vigna), seeded through splitmix64 so
// that small / correlated seeds still yield well-mixed state.

#include <array>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace aar::util {

/// splitmix64 step; used for seeding and as a cheap stateless mixer.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256** PRNG.  Satisfies std::uniform_random_bit_generator.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Construct from a seed; any value (including 0) is acceptable.
  explicit Rng(std::uint64_t seed = 0x9d2c5680u) noexcept { reseed(seed); }

  /// Re-initialize the full 256-bit state from a 64-bit seed.
  void reseed(std::uint64_t seed) noexcept {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  /// Next raw 64-bit value.
  result_type operator()() noexcept {
    const std::uint64_t s1 = state_[1];
    const std::uint64_t result = rotl(s1 * 5, 7) * 9;
    const std::uint64_t t = s1 << 17;
    state_[2] ^= state_[0];
    state_[3] ^= s1;
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, bound).  bound must be > 0.
  /// Uses Lemire's multiply-shift rejection method (unbiased).
  [[nodiscard]] std::uint64_t below(std::uint64_t bound) noexcept;

  /// Uniform integer in [lo, hi] inclusive.  Requires lo <= hi.
  [[nodiscard]] std::int64_t range(std::int64_t lo, std::int64_t hi) noexcept {
    return lo + static_cast<std::int64_t>(
                    below(static_cast<std::uint64_t>(hi - lo) + 1));
  }

  /// Bernoulli trial with success probability p.
  [[nodiscard]] bool chance(double p) noexcept { return uniform() < p; }

  /// Exponentially distributed value with the given mean (> 0).
  [[nodiscard]] double exponential(double mean) noexcept;

  /// Geometric number of failures before first success, success prob p in (0,1].
  [[nodiscard]] std::uint64_t geometric(double p) noexcept;

  /// Normally distributed value (Box–Muller, no caching).
  [[nodiscard]] double normal(double mean, double stddev) noexcept;

  /// Pick a uniformly random element index of a non-empty container size.
  [[nodiscard]] std::size_t index(std::size_t size) noexcept {
    return static_cast<std::size_t>(below(size));
  }

  /// Fisher–Yates shuffle of a span.
  template <typename T>
  void shuffle(std::span<T> values) noexcept {
    for (std::size_t i = values.size(); i > 1; --i) {
      std::size_t j = index(i);
      using std::swap;
      swap(values[i - 1], values[j]);
    }
  }

  /// Sample an index from an (unnormalized) non-negative weight vector.
  /// Returns weights.size() if the total weight is zero.
  [[nodiscard]] std::size_t weighted(std::span<const double> weights) noexcept;

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }
  std::array<std::uint64_t, 4> state_{};
};

/// Bounded Zipf(s) sampler over ranks {0, 1, ..., n-1}; rank 0 is the most
/// popular.  P(rank = k) ∝ 1 / (k+1)^s.  Uses a precomputed CDF with binary
/// search: O(n) setup, O(log n) per sample — appropriate for the catalogue
/// sizes used here (≤ a few million).
class ZipfSampler {
 public:
  ZipfSampler() = default;
  /// n must be >= 1; s >= 0 (s == 0 degenerates to uniform).
  ZipfSampler(std::size_t n, double s);

  [[nodiscard]] std::size_t operator()(Rng& rng) const noexcept;
  [[nodiscard]] std::size_t size() const noexcept { return cdf_.size(); }
  /// Probability mass of a given rank.
  [[nodiscard]] double pmf(std::size_t rank) const noexcept;

 private:
  std::vector<double> cdf_;
};

}  // namespace aar::util
