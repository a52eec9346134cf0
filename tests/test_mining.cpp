#include "mining/incremental_miner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/strategy.hpp"
#include "obs/registry.hpp"
#include "overlay/assoc_policy.hpp"
#include "util/rng.hpp"

namespace aar::mining {
namespace {

using trace::QueryReplyPair;

QueryReplyPair pair_of(HostId source, HostId replier, trace::Guid guid = 0) {
  return QueryReplyPair{.time = 0.0,
                        .guid = guid,
                        .source_host = source,
                        .replying_neighbor = replier};
}

std::string saved(const core::RuleSet& rules) {
  std::ostringstream os;
  rules.save(os);
  return os.str();
}

/// The batch reference: RuleSet::build over the miner's live window, which a
/// snapshot must reproduce byte-for-byte.
core::RuleSet batch_of(const std::deque<QueryReplyPair>& window,
                       const MinerConfig& config) {
  const std::vector<QueryReplyPair> pairs(window.begin(), window.end());
  return core::RuleSet::build(pairs, config.min_support, config.min_confidence);
}

/// Snapshot the miner and assert byte-identical agreement with batch mining
/// over the reference window.
void expect_snapshot_matches(IncrementalRuleMiner& miner,
                             const std::deque<QueryReplyPair>& window,
                             const std::string& context) {
  ASSERT_EQ(miner.window_size(), window.size()) << context;
  const core::RuleSet& snapshot = miner.snapshot();
  const core::RuleSet batch = batch_of(window, miner.config());
  EXPECT_EQ(snapshot, batch) << context;
  EXPECT_EQ(snapshot.num_rules(), batch.num_rules()) << context;
  EXPECT_EQ(snapshot.num_antecedents(), batch.num_antecedents()) << context;
  EXPECT_EQ(saved(snapshot), saved(batch)) << context;
}

TEST(IncrementalRuleMiner, EmptyMinerSnapshotsEmptyRuleSet) {
  IncrementalRuleMiner miner({.window = 8, .min_support = 1});
  EXPECT_TRUE(miner.snapshot().empty());
  EXPECT_EQ(miner.window_size(), 0u);
  EXPECT_EQ(miner.distinct_antecedents(), 0u);
}

TEST(IncrementalRuleMiner, CountsAndSortsLikeBatchBuild) {
  IncrementalRuleMiner miner({.window = 0, .min_support = 2});
  std::deque<QueryReplyPair> window;
  // 7->3 five times, 7->4 twice, 7->5 twice (tie broken by neighbor id),
  // 8->1 once (pruned).
  const std::vector<QueryReplyPair> pairs{
      pair_of(7, 3), pair_of(7, 4), pair_of(7, 3), pair_of(7, 5),
      pair_of(7, 3), pair_of(8, 1), pair_of(7, 5), pair_of(7, 4),
      pair_of(7, 3), pair_of(7, 3)};
  for (const auto& pair : pairs) {
    miner.add(pair);
    window.push_back(pair);
  }
  expect_snapshot_matches(miner, window, "fixed example");
  const auto consequents = miner.ruleset().consequents(7);
  ASSERT_EQ(consequents.size(), 3u);
  EXPECT_EQ(consequents[0], (core::Consequent{3, 5}));
  EXPECT_EQ(consequents[1], (core::Consequent{4, 2}));  // tie: lower id first
  EXPECT_EQ(consequents[2], (core::Consequent{5, 2}));
  EXPECT_FALSE(miner.ruleset().covers(8));  // below min_support
}

TEST(IncrementalRuleMiner, MinSupportBoundaryCrossedByEviction) {
  // Window 4, min_support 2: the rule lives exactly while two copies of
  // (7,3) are inside the window.
  IncrementalRuleMiner miner({.window = 4, .min_support = 2});
  std::deque<QueryReplyPair> window;
  auto slide = [&](HostId s, HostId r) {
    miner.add(pair_of(s, r));
    window.push_back(pair_of(s, r));
    while (window.size() > 4) window.pop_front();
  };
  slide(7, 3);
  expect_snapshot_matches(miner, window, "support 1 of 2");
  EXPECT_FALSE(miner.ruleset().matches(7, 3));
  slide(7, 3);
  expect_snapshot_matches(miner, window, "support exactly at threshold");
  EXPECT_TRUE(miner.ruleset().matches(7, 3));
  slide(9, 1);
  slide(9, 1);
  slide(9, 1);  // evicts the first (7,3): support drops back below threshold
  expect_snapshot_matches(miner, window, "support evicted below threshold");
  EXPECT_FALSE(miner.ruleset().matches(7, 3));
}

TEST(IncrementalRuleMiner, TotalEvictionRemovesAntecedent) {
  IncrementalRuleMiner miner({.window = 0, .min_support = 1});
  for (int i = 0; i < 3; ++i) miner.add(pair_of(7, 3));
  for (int i = 0; i < 2; ++i) miner.add(pair_of(8, 4));
  EXPECT_TRUE(miner.snapshot().covers(7));
  // Evict all of antecedent 7's pairs (they are oldest).
  miner.evict_to(2);
  EXPECT_EQ(miner.evictions(), 3u);
  const core::RuleSet& rules = miner.snapshot();
  EXPECT_FALSE(rules.covers(7));
  EXPECT_TRUE(rules.matches(8, 4));
  EXPECT_EQ(rules.num_antecedents(), 1u);
  EXPECT_EQ(miner.distinct_antecedents(), 1u);
}

TEST(IncrementalRuleMiner, InPlaceGrowShrinkAndDeleteKeepLookupsExact) {
  // One antecedent's rules grow, shrink and vanish across snapshots while
  // its neighbours' rules stay put: every lookup reads the current counts.
  IncrementalRuleMiner miner({.window = 0, .min_support = 1});
  miner.add(pair_of(4, 40));
  miner.add(pair_of(7, 1));
  miner.add(pair_of(9, 90));
  const core::RuleSet& rules = miner.snapshot();
  ASSERT_EQ(rules.consequents(7).size(), 1u);

  // Grow: 7 gains three consequents (2 outranks 1 on support).
  for (const HostId replier : {2u, 2u, 3u, 5u}) miner.add(pair_of(7, replier));
  miner.snapshot();
  EXPECT_EQ(std::vector<core::Consequent>(rules.consequents(7).begin(),
                                          rules.consequents(7).end()),
            (std::vector<core::Consequent>{{2, 2}, {1, 1}, {3, 1}, {5, 1}}));
  EXPECT_EQ(rules.top_k(7, 2), (std::vector<HostId>{2, 1}));
  EXPECT_EQ(rules.top_k(7, 9), (std::vector<HostId>{2, 1, 3, 5}));

  // Shrink: evicting the four oldest pairs leaves 7 with 2, 3 and 5.
  miner.evict_to(miner.window_size() - 4);  // (4,40) (7,1) (9,90) (7,2)
  miner.add(pair_of(4, 40));
  miner.add(pair_of(9, 90));
  miner.snapshot();
  EXPECT_EQ(std::vector<core::Consequent>(rules.consequents(7).begin(),
                                          rules.consequents(7).end()),
            (std::vector<core::Consequent>{{2, 1}, {3, 1}, {5, 1}}));
  EXPECT_EQ(rules.top_k(7, 1), (std::vector<HostId>{2}));
  EXPECT_FALSE(rules.matches(7, 1));

  // Delete: evict the rest of 7's pairs.
  miner.evict_to(2);
  miner.snapshot();
  EXPECT_FALSE(rules.covers(7));
  EXPECT_TRUE(rules.consequents(7).empty());
  EXPECT_TRUE(rules.top_k(7, 3).empty());
  EXPECT_EQ(rules.num_antecedents(), 2u);
  EXPECT_EQ(rules.num_rules(), 2u);
  EXPECT_EQ(rules.top_k(4, 1), (std::vector<HostId>{40}));
  EXPECT_EQ(rules.top_k(9, 1), (std::vector<HostId>{90}));

  // And back: 7 returns with one rule.
  miner.add(pair_of(7, 6));
  miner.snapshot();
  EXPECT_EQ(rules.top_k(7, 3), (std::vector<HostId>{6}));
  EXPECT_EQ(rules.num_rules(), 3u);
}

TEST(IncrementalRuleMiner, RingWrapAroundKeepsWindowExact) {
  // Capacity 7 (not a power of two) forces head wrap-around many times over.
  IncrementalRuleMiner miner({.window = 7, .min_support = 1});
  std::deque<QueryReplyPair> window;
  util::Rng rng(11);
  for (int i = 0; i < 500; ++i) {
    const auto pair = pair_of(static_cast<HostId>(rng.below(4)),
                              static_cast<HostId>(10 + rng.below(4)));
    miner.add(pair);
    window.push_back(pair);
    while (window.size() > 7) window.pop_front();
    ASSERT_EQ(miner.window_size(), window.size());
    for (std::size_t j = 0; j < window.size(); ++j) {
      ASSERT_EQ(miner.window_pair(j), window[j]) << "i=" << i << " j=" << j;
    }
  }
  expect_snapshot_matches(miner, window, "after 500 wrap-around adds");
}

TEST(IncrementalRuleMiner, DifferentialRandomizedAgainstBatch) {
  // Randomized windows over small host spaces (to force collisions),
  // snapshotting at random points; every snapshot must equal batch mining
  // over the live window, byte for byte.
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    util::Rng rng(seed);
    const std::size_t window_cap = 1 + rng.below(40);      // 1 .. 40
    const auto min_support = static_cast<std::uint32_t>(1 + rng.below(4));
    MinerConfig config{.window = window_cap, .min_support = min_support};
    IncrementalRuleMiner miner(config);
    std::deque<QueryReplyPair> window;
    const HostId sources = static_cast<HostId>(2 + rng.below(5));
    const HostId repliers = static_cast<HostId>(2 + rng.below(5));
    for (int i = 0; i < 600; ++i) {
      const auto pair = pair_of(static_cast<HostId>(rng.below(sources)),
                                static_cast<HostId>(100 + rng.below(repliers)));
      miner.add(pair);
      window.push_back(pair);
      while (window.size() > window_cap) window.pop_front();
      if (rng.chance(0.1)) {
        expect_snapshot_matches(miner, window,
                                "seed=" + std::to_string(seed) +
                                    " i=" + std::to_string(i));
      }
    }
    expect_snapshot_matches(miner, window,
                            "seed=" + std::to_string(seed) + " final");
  }
}

TEST(IncrementalRuleMiner, DifferentialWithConfidencePruning) {
  for (std::uint64_t seed = 100; seed < 106; ++seed) {
    util::Rng rng(seed);
    MinerConfig config{
        .window = 24, .min_support = 2, .min_confidence = 0.25};
    IncrementalRuleMiner miner(config);
    std::deque<QueryReplyPair> window;
    for (int i = 0; i < 400; ++i) {
      // Two sources, replier skew so confidences straddle the 0.25 cut.
      const auto pair = pair_of(static_cast<HostId>(rng.below(2)),
                                static_cast<HostId>(10 + rng.below(5)));
      miner.add(pair);
      window.push_back(pair);
      while (window.size() > 24) window.pop_front();
      if (i % 37 == 0) {
        expect_snapshot_matches(miner, window,
                                "confidence seed=" + std::to_string(seed) +
                                    " i=" + std::to_string(i));
      }
    }
    expect_snapshot_matches(miner, window, "confidence final");
  }
}

TEST(IncrementalRuleMiner, ManualEvictionMatchesBatch) {
  // Unbounded window driven with evict_to(), the core::Strategy pattern.
  IncrementalRuleMiner miner({.window = 0, .min_support = 2});
  std::deque<QueryReplyPair> window;
  util::Rng rng(77);
  for (int round = 0; round < 20; ++round) {
    const std::size_t adds = 5 + rng.below(30);
    for (std::size_t i = 0; i < adds; ++i) {
      const auto pair = pair_of(static_cast<HostId>(rng.below(4)),
                                static_cast<HostId>(50 + rng.below(3)));
      miner.add(pair);
      window.push_back(pair);
    }
    const std::size_t keep = rng.below(window.size() + 1);
    miner.evict_to(keep);
    while (window.size() > keep) window.pop_front();
    expect_snapshot_matches(miner, window, "round " + std::to_string(round));
  }
}

TEST(IncrementalRuleMiner, SnapshotIsStableBetweenChanges) {
  IncrementalRuleMiner miner({.window = 0, .min_support = 1});
  miner.add(pair_of(1, 2));
  const core::RuleSet& first = miner.snapshot();
  const std::string bytes = saved(first);
  EXPECT_EQ(miner.dirty_antecedents(), 0u);
  // A second snapshot with no window churn re-materializes nothing.
  const core::RuleSet& second = miner.snapshot();
  EXPECT_EQ(&first, &second);
  EXPECT_EQ(saved(second), bytes);
  EXPECT_EQ(miner.snapshots_taken(), 2u);
}

TEST(IncrementalRuleMiner, RulesetLagsUntilSnapshot) {
  IncrementalRuleMiner miner({.window = 0, .min_support = 1});
  miner.add(pair_of(1, 2));
  EXPECT_TRUE(miner.ruleset().empty());  // counts moved, view did not
  EXPECT_EQ(miner.dirty_antecedents(), 1u);
  miner.snapshot();
  EXPECT_TRUE(miner.ruleset().matches(1, 2));
}

TEST(IncrementalRuleMiner, ClearEmptiesEverything) {
  IncrementalRuleMiner miner({.window = 8, .min_support = 1});
  for (int i = 0; i < 6; ++i) miner.add(pair_of(1, 2));
  EXPECT_FALSE(miner.snapshot().empty());
  miner.clear();
  EXPECT_EQ(miner.window_size(), 0u);
  EXPECT_TRUE(miner.snapshot().empty());
  EXPECT_EQ(miner.distinct_antecedents(), 0u);
}

// --- the refactored consumers stay equivalent to batch mining ---------------

TEST(MinerBackedStrategy, SlidingRegenerateEqualsBatchBuild) {
  core::SlidingWindow strategy(2);
  util::Rng rng(5);
  std::vector<QueryReplyPair> previous;
  for (int block = 0; block < 6; ++block) {
    std::vector<QueryReplyPair> pairs;
    for (int i = 0; i < 64; ++i) {
      pairs.push_back(pair_of(static_cast<HostId>(rng.below(5)),
                              static_cast<HostId>(20 + rng.below(4)),
                              static_cast<trace::Guid>(block * 1000 + i)));
    }
    if (block == 0) {
      strategy.bootstrap(pairs);
    } else {
      strategy.test_block(pairs);
    }
    const core::RuleSet batch = core::RuleSet::build(pairs, 2);
    EXPECT_EQ(strategy.current_ruleset(), batch) << "block " << block;
    EXPECT_EQ(saved(strategy.current_ruleset()), saved(batch));
    previous = std::move(pairs);
  }
}

TEST(MinerBackedPolicy, RulesEqualBatchOverObservationWindow) {
  overlay::AssociationPolicyConfig config;
  config.window = 48;
  config.rebuild_every = 16;
  config.min_support = 2;
  overlay::AssociationRoutingPolicy policy(config);
  util::Rng rng(9);
  std::deque<QueryReplyPair> window;
  std::size_t since_rebuild = 0;
  core::RuleSet expected;
  for (trace::Guid g = 0; g < 300; ++g) {
    const auto upstream = static_cast<overlay::NodeId>(rng.below(6));
    const auto downstream = static_cast<overlay::NodeId>(rng.below(6));
    policy.on_reply_path(overlay::Query{.guid = g, .target = 0, .category = 0,
                                        .origin = 0},
                         /*self=*/0, upstream, downstream);
    window.push_back(pair_of(upstream, downstream, g));
    while (window.size() > config.window) window.pop_front();
    if (++since_rebuild >= config.rebuild_every) {
      since_rebuild = 0;
      const std::vector<QueryReplyPair> pairs(window.begin(), window.end());
      expected = core::RuleSet::build(pairs, config.min_support);
    }
    ASSERT_EQ(policy.rules(), expected) << "observation " << g;
  }
  EXPECT_EQ(policy.miner().window_size(), window.size());
}

// --- replace_window with one counted table --------------------------------

/// Everything a snapshot publishes: rule bytes, eviction total, distinct
/// antecedents and the mining.antecedents gauge it sets.
struct Published {
  std::string rules;
  std::uint64_t evictions = 0;
  std::size_t antecedents = 0;
  double gauge = 0.0;

  bool operator==(const Published&) const = default;
};

Published publish(IncrementalRuleMiner& miner) {
  Published out;
  out.rules = saved(miner.snapshot());
  out.evictions = miner.evictions();
  out.antecedents = miner.distinct_antecedents();
  out.gauge = obs::Registry::global().gauge("mining.antecedents").value();
  return out;
}

std::vector<QueryReplyPair> random_block(util::Rng& rng, std::size_t n) {
  std::vector<QueryReplyPair> block;
  block.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    block.push_back(pair_of(static_cast<HostId>(rng.below(60)),
                            static_cast<HostId>(100 + rng.below(10)), i));
  }
  return block;
}

TEST(IncrementalRuleMiner, OneTableReplaceWindowEqualsAddThenEvict) {
  // Successive windows grow, shrink, repeat a size and empty out.
  util::Rng rng(70);
  IncrementalRuleMiner replaced({.window = 0, .min_support = 3});
  IncrementalRuleMiner serial({.window = 0, .min_support = 3});
  ShardCounts table;
  for (const std::size_t size : {1'500u, 400u, 2'500u, 2'500u, 0u, 900u}) {
    const std::vector<QueryReplyPair> block = random_block(rng, size);
    table.count(block);
    replaced.replace_window(block, table);
    EXPECT_EQ(table.distinct_antecedents(), 0u);  // handed back cleared
    serial.add(block);
    serial.evict_to(block.size());

    const std::string context = "size=" + std::to_string(size);
    ASSERT_EQ(replaced.window_size(), serial.window_size()) << context;
    const Published got = publish(replaced);
    const Published want = publish(serial);
    EXPECT_EQ(got.rules, want.rules) << context;
    EXPECT_EQ(got.rules, saved(core::RuleSet::build(block, 3))) << context;
    EXPECT_EQ(got.evictions, want.evictions) << context;
    EXPECT_EQ(got.antecedents, want.antecedents) << context;
#ifndef AAR_OBS_OFF
    EXPECT_EQ(got.gauge, want.gauge) << context;
#endif
  }
}

}  // namespace
}  // namespace aar::mining
