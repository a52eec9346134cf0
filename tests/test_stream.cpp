// Lossy Counting (Manku & Motwani) and the StreamingRuleset strategy that
// realizes the paper's Section VI data-stream pointer with bounded memory.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <stdexcept>

#include "assoc/stream.hpp"
#include "core/strategy.hpp"
#include "core/trace_simulator.hpp"
#include "trace/generator.hpp"
#include "util/rng.hpp"

namespace aar {
namespace {

// --- LossyCounter ---------------------------------------------------------------

TEST(LossyCounter, ExactForShortStreams) {
  assoc::LossyCounter counter(0.01);  // bucket width 100
  for (int i = 0; i < 50; ++i) counter.add(7);
  for (int i = 0; i < 30; ++i) counter.add(9);
  EXPECT_EQ(counter.count(7), 50u);
  EXPECT_EQ(counter.count(9), 30u);
  EXPECT_EQ(counter.count(1), 0u);
  EXPECT_EQ(counter.items_processed(), 80u);
}

TEST(LossyCounter, NeverOvercountsAndUndercountsWithinEpsilonN) {
  constexpr double kEpsilon = 0.005;
  assoc::LossyCounter counter(kEpsilon);
  std::map<std::uint64_t, std::uint64_t> truth;
  util::Rng rng(3);
  // Zipf-ish stream over 200 keys.
  util::ZipfSampler zipf(200, 1.0);
  constexpr int kItems = 50'000;
  for (int i = 0; i < kItems; ++i) {
    const std::uint64_t key = zipf(rng);
    ++truth[key];
    counter.add(key);
  }
  const double max_undercount = kEpsilon * kItems;
  for (const auto& [key, true_count] : truth) {
    const std::uint64_t estimate = counter.count(key);
    EXPECT_LE(estimate, true_count);  // estimates never exceed truth
    if (static_cast<double>(true_count) > max_undercount) {
      // Guarantee: undercount bounded by εN (and the item is present).
      EXPECT_GE(static_cast<double>(estimate),
                static_cast<double>(true_count) - max_undercount);
      EXPECT_GE(counter.upper_bound(key), true_count);
    }
  }
}

TEST(LossyCounter, FrequentIsSupersetOfTrulyFrequent) {
  constexpr double kEpsilon = 0.002;
  constexpr double kSupport = 0.02;
  assoc::LossyCounter counter(kEpsilon);
  std::map<std::uint64_t, std::uint64_t> truth;
  util::Rng rng(5);
  util::ZipfSampler zipf(500, 1.1);
  constexpr int kItems = 100'000;
  for (int i = 0; i < kItems; ++i) {
    const std::uint64_t key = zipf(rng);
    ++truth[key];
    counter.add(key);
  }
  const auto reported = counter.frequent(kSupport);
  std::map<std::uint64_t, std::uint64_t> reported_map(reported.begin(),
                                                      reported.end());
  for (const auto& [key, count] : truth) {
    if (static_cast<double>(count) >= kSupport * kItems) {
      EXPECT_TRUE(reported_map.contains(key)) << "missed frequent key " << key;
    }
  }
}

TEST(LossyCounter, MemoryStaysBounded) {
  assoc::LossyCounter counter(0.01);
  util::Rng rng(7);
  // A million items over a huge key space: the table must stay near
  // O(1/ε · log εN) — far below the distinct-key count.
  for (int i = 0; i < 1'000'000; ++i) {
    counter.add(rng.below(1u << 30));  // almost all keys distinct, all rare
  }
  EXPECT_LT(counter.table_size(), 2'000u);
}

TEST(LossyCounter, ClearResets) {
  assoc::LossyCounter counter(0.1);
  counter.add(1);
  counter.add(1);
  counter.clear();
  EXPECT_EQ(counter.count(1), 0u);
  EXPECT_EQ(counter.items_processed(), 0u);
  EXPECT_EQ(counter.table_size(), 0u);
}

TEST(LossyCounter, RejectsEpsilonOutsideTheOpenUnitInterval) {
  // Checked in every build type: ε = 0 would cast an infinite bucket width
  // to an integer.
  for (const double epsilon : {0.0, 1.0, -0.1, 1.5,
                               std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(assoc::LossyCounter{epsilon}, std::invalid_argument) << epsilon;
  }
  EXPECT_NO_THROW(assoc::LossyCounter{0.5});
}

TEST(LossyCounter, AddReportsThePruneAtEachBucketEnd) {
  assoc::LossyCounter counter(0.25);  // bucket width 4
  EXPECT_FALSE(counter.add(1));
  EXPECT_FALSE(counter.add(2));
  EXPECT_FALSE(counter.add(1));
  EXPECT_TRUE(counter.add(3));  // 4th item closes bucket 1 and prunes 2, 3
  EXPECT_EQ(counter.count(1), 2u);
  EXPECT_EQ(counter.count(2), 0u);
  EXPECT_EQ(counter.table_size(), 1u);
}

// --- StreamingRuleset -------------------------------------------------------------

std::vector<trace::QueryReplyPair> block_of(core::HostId source,
                                            core::HostId replier, std::size_t n,
                                            trace::Guid base) {
  std::vector<trace::QueryReplyPair> pairs;
  for (std::size_t i = 0; i < n; ++i) {
    pairs.push_back({.time = 0.0,
                     .guid = base + i,
                     .source_host = source,
                     .replying_neighbor = replier});
  }
  return pairs;
}

TEST(StreamingRuleset, LearnsAndCovers) {
  core::StreamingRuleset strategy(10, 1e-3, 1'000, 3.0);
  strategy.bootstrap(block_of(1, 100, 50, 0));
  const core::BlockMeasures m = strategy.test_block(block_of(1, 100, 50, 1'000));
  EXPECT_DOUBLE_EQ(m.coverage(), 1.0);
  EXPECT_DOUBLE_EQ(m.success(), 1.0);
}

TEST(StreamingRuleset, FractionalThresholdIsComparedInDouble) {
  // Threshold 2.5: a pair seen twice must not be a rule yet (truncating the
  // threshold to an integer activated it at count 2).
  core::StreamingRuleset strategy(1, 1e-3, 10'000, 2.5);
  strategy.bootstrap(block_of(1, 100, 2, 0));
  const core::BlockMeasures twice = strategy.test_block(block_of(1, 100, 1, 1'000));
  EXPECT_EQ(twice.total_queries, 1u);
  EXPECT_EQ(twice.covered, 0u);
  // That test pair trained the third sighting: now 3 >= 2.5.
  const core::BlockMeasures thrice = strategy.test_block(block_of(1, 100, 1, 2'000));
  EXPECT_EQ(thrice.covered, 1u);
  EXPECT_EQ(thrice.successful, 1u);
}

TEST(StreamingRuleset, RejectsZeroEpochAndBadEpsilon) {
  EXPECT_THROW(core::StreamingRuleset(10, 1e-3, 0), std::invalid_argument);
  EXPECT_THROW(core::StreamingRuleset(10, 0.0), std::invalid_argument);
  EXPECT_NO_THROW(core::StreamingRuleset(10, 1e-3, 1));
}

TEST(StreamingRuleset, EpochRotationForgetsTheStalePast) {
  // Epoch = 100 pairs; rules from >2 epochs ago must be gone.
  core::StreamingRuleset strategy(10, 1e-3, 100, 3.0);
  strategy.bootstrap(block_of(1, 100, 50, 0));
  strategy.test_block(block_of(2, 200, 300, 1'000));  // 3 epochs of host 2
  const core::BlockMeasures late = strategy.test_block(block_of(1, 100, 2, 9'000));
  EXPECT_DOUBLE_EQ(late.coverage(), 0.0);  // host 1 evicted by rotation
}

TEST(StreamingRuleset, MatchesIncrementalOnTheCalibratedTrace) {
  trace::TraceConfig config;
  config.seed = 11;
  config.block_size = 2'000;
  config.active_hosts = 60;
  trace::TraceGenerator generator(config);
  const auto pairs = generator.generate_pairs(30 * 2'000);

  core::StreamingRuleset streaming(10, 1e-3, 2'000, 3.0);
  core::IncrementalRuleset incremental(10);
  const auto r_streaming = core::run_trace_simulation(streaming, pairs, 2'000);
  const auto r_incremental =
      core::run_trace_simulation(incremental, pairs, 2'000);
  // Both realize the always-fresh idea; lossy counting should land within a
  // few points of the decay variant on both measures.
  EXPECT_GT(r_streaming.avg_coverage(), r_incremental.avg_coverage() - 0.07);
  EXPECT_GT(r_streaming.avg_success(), r_incremental.avg_success() - 0.07);
  EXPECT_GT(r_streaming.avg_coverage(), 0.85);
}

TEST(StreamingRuleset, TableSizeStaysSmall) {
  trace::TraceConfig config;
  config.seed = 13;
  config.block_size = 2'000;
  trace::TraceGenerator generator(config);
  const auto pairs = generator.generate_pairs(20 * 2'000);
  core::StreamingRuleset strategy(10, 1e-3, 2'000, 3.0);
  strategy.bootstrap(std::span(pairs).first(2'000));
  for (std::size_t b = 1; b < 20; ++b) {
    strategy.test_block(std::span(pairs).subspan(b * 2'000, 2'000));
  }
  // Bounded by the lossy-counting guarantee, not by the stream length.
  EXPECT_LT(strategy.table_size(), 5'000u);
}

}  // namespace
}  // namespace aar
