#include "core/strategy.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <vector>

namespace aar::core {
namespace {

using trace::QueryReplyPair;

std::vector<QueryReplyPair> block_of(HostId source, HostId replier,
                                     std::size_t n, trace::Guid guid_base) {
  std::vector<QueryReplyPair> pairs;
  for (std::size_t i = 0; i < n; ++i) {
    pairs.push_back({.time = 0.0,
                     .guid = guid_base + i,
                     .source_host = source,
                     .replying_neighbor = replier});
  }
  return pairs;
}

TEST(StaticRuleset, NeverRegenerates) {
  StaticRuleset strategy(1);
  strategy.bootstrap(block_of(1, 100, 10, 0));
  EXPECT_EQ(strategy.rulesets_generated(), 1u);
  for (trace::Guid b = 0; b < 5; ++b) {
    strategy.test_block(block_of(1, 100, 10, 1'000 * (b + 1)));
  }
  EXPECT_EQ(strategy.rulesets_generated(), 1u);
}

TEST(StaticRuleset, DegradesWhenWorldChanges) {
  StaticRuleset strategy(1);
  strategy.bootstrap(block_of(1, 100, 10, 0));
  const BlockMeasures same = strategy.test_block(block_of(1, 100, 10, 100));
  EXPECT_DOUBLE_EQ(same.coverage(), 1.0);
  EXPECT_DOUBLE_EQ(same.success(), 1.0);
  // Replier changed: still covered, no success.
  const BlockMeasures drifted = strategy.test_block(block_of(1, 999, 10, 200));
  EXPECT_DOUBLE_EQ(drifted.coverage(), 1.0);
  EXPECT_DOUBLE_EQ(drifted.success(), 0.0);
  // Host changed: nothing covered.
  const BlockMeasures churned = strategy.test_block(block_of(2, 100, 10, 300));
  EXPECT_DOUBLE_EQ(churned.coverage(), 0.0);
}

TEST(SlidingWindow, RegeneratesEveryBlock) {
  SlidingWindow strategy(1);
  strategy.bootstrap(block_of(1, 100, 10, 0));
  for (trace::Guid b = 0; b < 4; ++b) {
    strategy.test_block(block_of(1, 100, 10, 1'000 * (b + 1)));
  }
  EXPECT_EQ(strategy.rulesets_generated(), 5u);  // bootstrap + 4
}

TEST(SlidingWindow, TestsAgainstPreviousBlock) {
  SlidingWindow strategy(1);
  strategy.bootstrap(block_of(1, 100, 10, 0));
  // Block 1 changes the replier: tested against block 0's rules -> ρ = 0.
  const BlockMeasures b1 = strategy.test_block(block_of(1, 200, 10, 100));
  EXPECT_DOUBLE_EQ(b1.success(), 0.0);
  // Block 2 keeps the new replier: tested against block 1's rules -> ρ = 1.
  const BlockMeasures b2 = strategy.test_block(block_of(1, 200, 10, 200));
  EXPECT_DOUBLE_EQ(b2.success(), 1.0);
}

TEST(LazySlidingWindow, RegeneratesEveryPeriod) {
  LazySlidingWindow strategy(1, 3);
  strategy.bootstrap(block_of(1, 100, 10, 0));
  for (trace::Guid b = 0; b < 9; ++b) {
    strategy.test_block(block_of(1, 100, 10, 1'000 * (b + 1)));
  }
  // 9 tested blocks / period 3 = 3 regenerations + bootstrap.
  EXPECT_EQ(strategy.rulesets_generated(), 4u);
  EXPECT_EQ(strategy.period(), 3u);
}

TEST(LazySlidingWindow, StaleBetweenRefreshes) {
  LazySlidingWindow strategy(1, 3);
  strategy.bootstrap(block_of(1, 100, 10, 0));
  // World flips replier immediately; rules refresh only after 3 blocks.
  EXPECT_DOUBLE_EQ(strategy.test_block(block_of(1, 200, 10, 100)).success(), 0.0);
  EXPECT_DOUBLE_EQ(strategy.test_block(block_of(1, 200, 10, 200)).success(), 0.0);
  EXPECT_DOUBLE_EQ(strategy.test_block(block_of(1, 200, 10, 300)).success(), 0.0);
  // Refresh happened after the 3rd tested block.
  EXPECT_DOUBLE_EQ(strategy.test_block(block_of(1, 200, 10, 400)).success(), 1.0);
}

TEST(AdaptiveSlidingWindow, InitialThresholdApplies) {
  AdaptiveSlidingWindow strategy(1, 10, 0.7);
  EXPECT_NEAR(strategy.coverage_threshold(), 0.985 * 0.7, 1e-9);
  EXPECT_NEAR(strategy.success_threshold(), 0.985 * 0.7, 1e-9);
}

TEST(AdaptiveSlidingWindow, RegeneratesOnQualityDrop) {
  AdaptiveSlidingWindow strategy(1, 10, 0.7);
  strategy.bootstrap(block_of(1, 100, 10, 0));
  EXPECT_EQ(strategy.rulesets_generated(), 1u);
  // Stable world: no regeneration.
  strategy.test_block(block_of(1, 100, 10, 100));
  EXPECT_EQ(strategy.rulesets_generated(), 1u);
  // Drift: success collapses below threshold -> regenerate from this block.
  strategy.test_block(block_of(1, 200, 10, 200));
  EXPECT_EQ(strategy.rulesets_generated(), 2u);
  // The regenerated set knows the new replier.
  const BlockMeasures next = strategy.test_block(block_of(1, 200, 10, 300));
  EXPECT_DOUBLE_EQ(next.success(), 1.0);
}

TEST(AdaptiveSlidingWindow, ThresholdTracksHistoryMean) {
  AdaptiveSlidingWindow strategy(1, 2, 0.7);
  strategy.bootstrap(block_of(1, 100, 10, 0));
  strategy.test_block(block_of(1, 100, 10, 100));  // coverage 1.0
  strategy.test_block(block_of(1, 100, 10, 200));  // coverage 1.0
  // History = {1.0, 1.0}; threshold tracks 0.985 * mean.
  EXPECT_NEAR(strategy.coverage_threshold(), 0.985, 1e-9);
}

TEST(AdaptiveSlidingWindow, HistoryWindowIsBounded) {
  AdaptiveSlidingWindow strategy(1, 2, 0.7);
  strategy.bootstrap(block_of(1, 100, 10, 0));
  // Two perfect blocks, then a total miss (different host).
  strategy.test_block(block_of(1, 100, 10, 100));
  strategy.test_block(block_of(1, 100, 10, 200));
  strategy.test_block(block_of(9, 900, 10, 300));  // coverage 0
  // Window of 2: mean of {1.0, 0.0} = 0.5.
  EXPECT_NEAR(strategy.coverage_threshold(), 0.985 * 0.5, 1e-9);
}

TEST(IncrementalRuleset, LearnsWithinABlock) {
  IncrementalRuleset strategy(1, /*half_life_pairs=*/1'000.0,
                              /*min_effective_support=*/2.0);
  strategy.bootstrap(block_of(1, 100, 50, 0));
  // Rules active immediately after bootstrap.
  const BlockMeasures m = strategy.test_block(block_of(1, 100, 50, 1'000));
  EXPECT_DOUBLE_EQ(m.coverage(), 1.0);
  EXPECT_DOUBLE_EQ(m.success(), 1.0);
}

TEST(IncrementalRuleset, AdaptsMidBlockAfterDrift) {
  IncrementalRuleset strategy(1, 1'000.0, 2.0);
  strategy.bootstrap(block_of(1, 100, 50, 0));
  // Replier flips; prequential evaluation pays only until the new pair
  // accumulates enough decayed support, then succeeds for the remainder.
  const BlockMeasures m = strategy.test_block(block_of(1, 200, 100, 1'000));
  EXPECT_GT(m.success(), 0.9);  // only the first few pairs miss
  EXPECT_LT(m.success(), 1.0);
}

TEST(IncrementalRuleset, DecayRetiresStaleRules) {
  IncrementalRuleset strategy(1, /*half_life_pairs=*/50.0, 2.0);
  strategy.bootstrap(block_of(1, 100, 20, 0));
  EXPECT_GT(strategy.active_rules(), 0u);
  // 10k pairs from a different host: host 1's counts decay to nothing.
  strategy.test_block(block_of(2, 200, 10'000, 1'000));
  // Prequential test with a 2-pair block: both arrive before host 1 can
  // re-accumulate min_effective support, so neither is covered.
  const BlockMeasures late = strategy.test_block(block_of(1, 100, 2, 100'000));
  EXPECT_DOUBLE_EQ(late.coverage(), 0.0);  // host 1's rules are gone
}

TEST(IncrementalRuleset, RejectsNonPositiveOrNonFiniteHalfLife) {
  // Checked in every build type, not only under assertions.
  for (const double half_life : {0.0, -10.0, std::numeric_limits<double>::infinity(),
                                 std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_THROW(IncrementalRuleset(1, half_life), std::invalid_argument)
        << half_life;
  }
  EXPECT_NO_THROW(IncrementalRuleset(1, 1e-3));
}

TEST(StrategyParameters, RejectZeroesInEveryBuild) {
  // min_support >= 1 used to be an assert, gone in Release builds.
  EXPECT_THROW(SlidingWindow(0), std::invalid_argument);
  EXPECT_THROW(StaticRuleset(0), std::invalid_argument);
  EXPECT_THROW(LazySlidingWindow(1, 0), std::invalid_argument);
  EXPECT_THROW(AdaptiveSlidingWindow(1, 0), std::invalid_argument);
  EXPECT_THROW((void)RuleSet::build(block_of(1, 100, 3, 0), 0),
               std::invalid_argument);
  EXPECT_THROW(mining::IncrementalRuleMiner({.window = 0, .min_support = 0}),
               std::invalid_argument);
  EXPECT_NO_THROW(LazySlidingWindow(1, 1));
  EXPECT_NO_THROW(AdaptiveSlidingWindow(1, 1));
}

TEST(IncrementalRuleset, ActiveRulesTrackThresholdCrossingsAndDecay) {
  IncrementalRuleset strategy(1, /*half_life_pairs=*/1'000.0, 3.0);
  strategy.bootstrap(block_of(1, 100, 2, 0));
  EXPECT_EQ(strategy.active_rules(), 0u);  // 2 < 3
  strategy.bootstrap(block_of(1, 100, 1, 10));
  strategy.bootstrap(block_of(1, 200, 3, 20));
  EXPECT_EQ(strategy.active_rules(), 2u);
  // 3,000 pairs of another host: three sweeps each halve the old counts.
  strategy.bootstrap(block_of(2, 300, 3'000, 100));
  EXPECT_EQ(strategy.active_rules(), 1u);  // host 2's rule only
}

TEST(IncrementalRuleset, NoMinedRulesetsCounted) {
  IncrementalRuleset strategy(1);
  strategy.bootstrap(block_of(1, 100, 10, 0));
  strategy.test_block(block_of(1, 100, 10, 100));
  EXPECT_EQ(strategy.rulesets_generated(), 0u);
}

TEST(StrategyNames, AreDescriptive) {
  StaticRuleset s(1);
  SlidingWindow w(1);
  LazySlidingWindow l(1, 10);
  AdaptiveSlidingWindow a(1, 50);
  IncrementalRuleset i(1);
  EXPECT_EQ(s.name(), "static");
  EXPECT_EQ(w.name(), "sliding");
  EXPECT_EQ(l.name(), "lazy(10)");
  EXPECT_EQ(a.name(), "adaptive(N=50)");
  EXPECT_EQ(i.name(), "incremental");
}

}  // namespace
}  // namespace aar::core
