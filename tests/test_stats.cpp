#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

namespace aar::util {
namespace {

TEST(Running, EmptyIsZeroed) {
  Running r;
  EXPECT_EQ(r.count(), 0u);
  EXPECT_EQ(r.mean(), 0.0);
  EXPECT_EQ(r.variance(), 0.0);
  EXPECT_EQ(r.min(), 0.0);
  EXPECT_EQ(r.max(), 0.0);
}

TEST(Running, SingleValue) {
  Running r;
  r.add(5.0);
  EXPECT_EQ(r.count(), 1u);
  EXPECT_EQ(r.mean(), 5.0);
  EXPECT_EQ(r.variance(), 0.0);
  EXPECT_EQ(r.min(), 5.0);
  EXPECT_EQ(r.max(), 5.0);
}

TEST(Running, MatchesClosedForm) {
  Running r;
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0, 5.0};
  for (double x : xs) r.add(x);
  EXPECT_DOUBLE_EQ(r.mean(), 3.0);
  EXPECT_DOUBLE_EQ(r.variance(), 2.5);  // sample variance of 1..5
  EXPECT_DOUBLE_EQ(r.stddev(), std::sqrt(2.5));
  EXPECT_EQ(r.min(), 1.0);
  EXPECT_EQ(r.max(), 5.0);
}

TEST(Running, StableUnderLargeOffset) {
  Running r;
  const double offset = 1e9;
  for (double x : {1.0, 2.0, 3.0}) r.add(offset + x);
  EXPECT_NEAR(r.variance(), 1.0, 1e-4);
}

TEST(Running, MergeEqualsCombinedStream) {
  Running all;
  Running left;
  Running right;
  for (int i = 0; i < 50; ++i) {
    const double x = std::sin(i) * 10.0;
    all.add(x);
    (i < 20 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
  EXPECT_EQ(left.min(), all.min());
  EXPECT_EQ(left.max(), all.max());
}

TEST(Running, MergeWithEmptyIsIdentity) {
  Running a;
  a.add(1.0);
  a.add(3.0);
  Running empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 2.0);
}

TEST(Series, TailMean) {
  Series s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.tail_mean(2), 3.5);
  EXPECT_DOUBLE_EQ(s.tail_mean(4), 2.5);
  EXPECT_DOUBLE_EQ(s.tail_mean(100), 2.5);  // clamps to available
}

TEST(Series, TailMeanEmpty) {
  Series s;
  EXPECT_EQ(s.tail_mean(5), 0.0);
}

TEST(Series, FirstBelow) {
  Series s;
  for (double x : {0.9, 0.8, 0.4, 0.7, 0.1}) s.add(x);
  EXPECT_EQ(s.first_below(0.5), 2u);
  EXPECT_EQ(s.first_below(0.05), s.size());  // never below
}

TEST(Series, PercentileInterpolates) {
  Series s;
  for (double x : {10.0, 20.0, 30.0, 40.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.percentile(0), 10.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 40.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 25.0);
}

TEST(PercentileSorted, PinsP50AndP99OnASmallSample) {
  // rank = p / 100 * (n - 1), interpolated: the formula the replay latency
  // percentiles and Series::percentile share.
  const std::vector<double> sorted{1.0, 2.0, 4.0, 8.0, 16.0};
  EXPECT_DOUBLE_EQ(util::percentile_sorted(sorted, 50.0), 4.0);
  EXPECT_DOUBLE_EQ(util::percentile_sorted(sorted, 99.0), 15.68);
  EXPECT_DOUBLE_EQ(util::percentile_sorted(sorted, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(util::percentile_sorted(sorted, 100.0), 16.0);
  EXPECT_EQ(util::percentile_sorted({}, 50.0), 0.0);

  util::Series series("unsorted");
  for (const double v : {16.0, 1.0, 8.0, 2.0, 4.0}) series.add(v);
  EXPECT_EQ(series.percentile(99.0), util::percentile_sorted(sorted, 99.0));
}

TEST(Series, SummaryTracksRunning) {
  Series s("x");
  for (double x : {2.0, 4.0, 6.0}) s.add(x);
  EXPECT_EQ(s.name(), "x");
  EXPECT_DOUBLE_EQ(s.mean(), 4.0);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 6.0);
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s[1], 4.0);
}

TEST(Histogram, BinningAndClamping) {
  Histogram h(0.0, 10.0, 5);
  h.add(-1.0);   // clamps into bin 0
  h.add(0.5);    // bin 0
  h.add(5.0);    // bin 2
  h.add(100.0);  // clamps into bin 4
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(2), 1u);
  EXPECT_EQ(h.count(4), 1u);
}

TEST(Histogram, BinEdges) {
  Histogram h(0.0, 10.0, 5);
  EXPECT_DOUBLE_EQ(h.bin_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(0), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_lo(4), 8.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(4), 10.0);
}

TEST(Histogram, CdfIsMonotoneReachingOne) {
  Histogram h(0.0, 1.0, 4);
  for (double x : {0.1, 0.3, 0.6, 0.9}) h.add(x);
  double prev = 0.0;
  for (std::size_t b = 0; b < h.bins(); ++b) {
    EXPECT_GE(h.cdf(b), prev);
    prev = h.cdf(b);
  }
  EXPECT_DOUBLE_EQ(h.cdf(h.bins() - 1), 1.0);
}

TEST(Histogram, EmptyCdfIsZero) {
  Histogram h(0.0, 1.0, 2);
  EXPECT_EQ(h.cdf(1), 0.0);
}

// Regression (ISSUE 2): a NaN sample made the float->ptrdiff_t cast in add()
// undefined and clamp's comparisons unspecified; a huge finite sample
// likewise overflowed the integer cast.  NaN must be dropped, everything
// else must clamp into the edge bins — in every build type, UBSan-clean.
TEST(Histogram, NonFiniteAndHugeSamplesAreSafe) {
  Histogram h(0.0, 10.0, 5);
  h.add(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(h.total(), 0u);  // dropped, not binned

  h.add(std::numeric_limits<double>::infinity());
  h.add(-std::numeric_limits<double>::infinity());
  h.add(1e300);   // finite, but bin index overflows any integer type
  h.add(-1e300);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(4), 2u);

  h.add(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(h.total(), 4u);
}

}  // namespace
}  // namespace aar::util
