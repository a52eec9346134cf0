#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>
#include <set>
#include <vector>

namespace aar::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a() == b() ? 1 : 0;
  EXPECT_LT(same, 2);
}

TEST(Rng, ZeroSeedIsUsable) {
  Rng rng(0);
  std::set<std::uint64_t> values;
  for (int i = 0; i < 32; ++i) values.insert(rng());
  EXPECT_GT(values.size(), 30u);  // not stuck
}

TEST(Rng, ReseedRestoresStream) {
  Rng rng(77);
  std::vector<std::uint64_t> first;
  for (int i = 0; i < 16; ++i) first.push_back(rng());
  rng.reseed(77);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(rng(), first[static_cast<size_t>(i)]);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(5);
  for (int i = 0; i < 1'000; ++i) {
    const double u = rng.uniform(-2.5, 7.5);
    EXPECT_GE(u, -2.5);
    EXPECT_LT(u, 7.5);
  }
}

TEST(Rng, UniformMeanIsCentered) {
  Rng rng(9);
  double sum = 0.0;
  constexpr int kSamples = 100'000;
  for (int i = 0; i < kSamples; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / kSamples, 0.5, 0.01);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(11);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, BelowOneIsAlwaysZero) {
  Rng rng(13);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, BelowIsRoughlyUniform) {
  Rng rng(17);
  constexpr std::uint64_t kBound = 10;
  constexpr int kSamples = 100'000;
  std::array<int, kBound> counts{};
  for (int i = 0; i < kSamples; ++i) ++counts[rng.below(kBound)];
  // Each bucket expects 10k; allow 5% deviation (>6 sigma).
  for (int count : counts) EXPECT_NEAR(count, kSamples / kBound, 500);
}

TEST(Rng, RangeInclusiveBounds) {
  Rng rng(19);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 1'000; ++i) {
    const std::int64_t v = rng.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(23);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ChanceMatchesProbability) {
  Rng rng(29);
  int hits = 0;
  constexpr int kSamples = 100'000;
  for (int i = 0; i < kSamples; ++i) hits += rng.chance(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / kSamples, 0.3, 0.01);
}

TEST(Rng, ExponentialMeanMatches) {
  Rng rng(31);
  double sum = 0.0;
  constexpr int kSamples = 200'000;
  for (int i = 0; i < kSamples; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / kSamples, 4.0, 0.1);
}

TEST(Rng, GeometricMeanMatches) {
  Rng rng(37);
  double sum = 0.0;
  constexpr int kSamples = 200'000;
  const double p = 0.25;
  for (int i = 0; i < kSamples; ++i) {
    sum += static_cast<double>(rng.geometric(p));
  }
  // E[failures before success] = (1-p)/p = 3.
  EXPECT_NEAR(sum / kSamples, 3.0, 0.1);
}

TEST(Rng, GeometricCertainSuccessIsZero) {
  Rng rng(41);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.geometric(1.0), 0u);
}

TEST(Rng, NormalMeanAndSpread) {
  Rng rng(43);
  struct Acc {
    double sum = 0, sq = 0;
    int n = 0;
  } acc;
  for (int i = 0; i < 200'000; ++i) {
    const double x = rng.normal(10.0, 2.0);
    acc.sum += x;
    acc.sq += x * x;
    ++acc.n;
  }
  const double mean = acc.sum / acc.n;
  const double var = acc.sq / acc.n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(53);
  std::vector<int> values(100);
  std::iota(values.begin(), values.end(), 0);
  rng.shuffle(std::span<int>(values));
  std::vector<int> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 100; ++i) EXPECT_EQ(sorted[static_cast<size_t>(i)], i);
}

TEST(Rng, WeightedPicksPositiveWeightOnly) {
  Rng rng(59);
  const std::vector<double> weights{0.0, 1.0, 0.0, 0.0};
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(rng.weighted(weights), 1u);
  }
}

TEST(Rng, WeightedZeroTotalSignalsFailure) {
  Rng rng(61);
  const std::vector<double> weights{0.0, 0.0};
  EXPECT_EQ(rng.weighted(weights), weights.size());
}

TEST(Rng, WeightedMatchesProportions) {
  Rng rng(67);
  const std::vector<double> weights{1.0, 3.0};
  int ones = 0;
  constexpr int kSamples = 100'000;
  for (int i = 0; i < kSamples; ++i) ones += rng.weighted(weights) == 1 ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(ones) / kSamples, 0.75, 0.01);
}

// --- ZipfSampler ------------------------------------------------------------

TEST(ZipfSampler, PmfSumsToOne) {
  ZipfSampler zipf(100, 0.8);
  double total = 0.0;
  for (std::size_t r = 0; r < zipf.size(); ++r) total += zipf.pmf(r);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ZipfSampler, PmfIsMonotoneDecreasing) {
  ZipfSampler zipf(50, 1.0);
  for (std::size_t r = 1; r < zipf.size(); ++r) {
    EXPECT_LE(zipf.pmf(r), zipf.pmf(r - 1) + 1e-12);
  }
}

TEST(ZipfSampler, SkewZeroIsUniform) {
  ZipfSampler zipf(10, 0.0);
  for (std::size_t r = 0; r < 10; ++r) EXPECT_NEAR(zipf.pmf(r), 0.1, 1e-9);
}

TEST(ZipfSampler, SamplesStayInRange) {
  ZipfSampler zipf(20, 0.9);
  Rng rng(71);
  for (int i = 0; i < 10'000; ++i) EXPECT_LT(zipf(rng), 20u);
}

TEST(ZipfSampler, SingleElementAlwaysZero) {
  ZipfSampler zipf(1, 1.2);
  Rng rng(73);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(zipf(rng), 0u);
}

TEST(ZipfSampler, EmpiricalMatchesPmf) {
  ZipfSampler zipf(5, 1.0);
  Rng rng(79);
  std::array<int, 5> counts{};
  constexpr int kSamples = 200'000;
  for (int i = 0; i < kSamples; ++i) ++counts[zipf(rng)];
  for (std::size_t r = 0; r < 5; ++r) {
    EXPECT_NEAR(static_cast<double>(counts[r]) / kSamples, zipf.pmf(r), 0.01);
  }
}

TEST(ZipfSampler, OutOfRangePmfIsZero) {
  ZipfSampler zipf(5, 1.0);
  EXPECT_EQ(zipf.pmf(5), 0.0);
  EXPECT_EQ(zipf.pmf(1000), 0.0);
}

// Property sweep: below() is unbiased near power-of-two boundaries.
class RngBoundSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngBoundSweep, BelowCoversWholeRange) {
  const std::uint64_t bound = GetParam();
  Rng rng(83 + bound);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2'000; ++i) seen.insert(rng.below(bound));
  // With 2000 samples over <= 17 buckets, every residue must appear.
  if (bound <= 17) {
    EXPECT_EQ(seen.size(), bound);
  }
  EXPECT_LT(*seen.rbegin(), bound);
}

INSTANTIATE_TEST_SUITE_P(Bounds, RngBoundSweep,
                         ::testing::Values(1, 2, 3, 7, 8, 15, 16, 17));

}  // namespace
}  // namespace aar::util
