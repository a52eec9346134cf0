#include "core/forwarder.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

namespace aar::core {
namespace {

RuleSet sample_rules() {
  std::vector<trace::QueryReplyPair> pairs;
  auto add = [&pairs](HostId source, HostId replier, int count) {
    for (int i = 0; i < count; ++i) {
      pairs.push_back({.time = 0.0,
                       .guid = static_cast<trace::Guid>(pairs.size() + 1),
                       .source_host = source,
                       .replying_neighbor = replier});
    }
  };
  add(1, 100, 5);
  add(1, 101, 3);
  add(1, 102, 1);
  add(2, 200, 4);
  return RuleSet::build(pairs, 1);
}

TEST(Forwarder, UnknownAntecedentFloods) {
  Forwarder forwarder;
  util::Rng rng(1);
  std::vector<HostId> targets;
  EXPECT_EQ(forwarder.choose(sample_rules(), 99, rng, targets), 0u);
  EXPECT_TRUE(targets.empty());
}

TEST(Forwarder, TopKPicksHighestSupport) {
  Forwarder forwarder({.k = 2, .mode = SelectionMode::kTopK});
  util::Rng rng(2);
  std::vector<HostId> targets;
  EXPECT_EQ(forwarder.choose(sample_rules(), 1, rng, targets), 2u);
  EXPECT_EQ(targets, (std::vector<HostId>{100, 101}));
}

TEST(Forwarder, KOneIsSingleBestNeighbor) {
  Forwarder forwarder({.k = 1});
  util::Rng rng(3);
  std::vector<HostId> targets;
  forwarder.choose(sample_rules(), 1, rng, targets);
  EXPECT_EQ(targets, (std::vector<HostId>{100}));
}

TEST(Forwarder, KLargerThanRulesReturnsAll) {
  Forwarder forwarder({.k = 10});
  util::Rng rng(4);
  std::vector<HostId> targets;
  EXPECT_EQ(forwarder.choose(sample_rules(), 2, rng, targets), 1u);
  EXPECT_EQ(targets, (std::vector<HostId>{200}));
}

TEST(Forwarder, RandomKStaysWithinConsequents) {
  Forwarder forwarder({.k = 2, .mode = SelectionMode::kRandomK});
  util::Rng rng(5);
  const RuleSet rules = sample_rules();
  std::set<HostId> seen;
  std::vector<HostId> targets;
  for (int i = 0; i < 100; ++i) {
    targets.clear();
    forwarder.choose(rules, 1, rng, targets);
    EXPECT_EQ(targets.size(), 2u);
    for (HostId h : targets) {
      EXPECT_TRUE(h == 100 || h == 101 || h == 102);
      seen.insert(h);
    }
  }
  EXPECT_EQ(seen.size(), 3u);  // randomization explores every consequent
}

/// One antecedent, 1, with ten equally supported consequents 100..109.
RuleSet ten_way_rules() {
  std::vector<trace::QueryReplyPair> pairs;
  for (HostId replier = 100; replier < 110; ++replier) {
    for (int i = 0; i < 2; ++i) {
      pairs.push_back({.time = 0.0,
                       .guid = static_cast<trace::Guid>(pairs.size() + 1),
                       .source_host = 1,
                       .replying_neighbor = replier});
    }
  }
  return RuleSet::build(pairs, 1);
}

TEST(Forwarder, RandomKIsSubsetOfConsequents) {
  const RuleSet rules = ten_way_rules();
  const Forwarder forwarder({.k = 4, .mode = SelectionMode::kRandomK});
  util::Rng rng(3);
  std::vector<HostId> picked;
  for (int trial = 0; trial < 50; ++trial) {
    picked.clear();
    forwarder.choose(rules, 1, rng, picked);
    EXPECT_EQ(picked.size(), 4u);
    std::set<HostId> unique(picked.begin(), picked.end());
    EXPECT_EQ(unique.size(), 4u);  // no repeats
    for (HostId h : picked) {
      EXPECT_GE(h, 100u);
      EXPECT_LT(h, 110u);
    }
  }
}

TEST(Forwarder, RandomKVariesAcrossDraws) {
  const RuleSet rules = ten_way_rules();
  const Forwarder forwarder({.k = 3, .mode = SelectionMode::kRandomK});
  util::Rng rng(4);
  std::set<std::vector<HostId>> draws;
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<HostId> picked;
    forwarder.choose(rules, 1, rng, picked);
    std::sort(picked.begin(), picked.end());
    draws.insert(picked);
  }
  EXPECT_GT(draws.size(), 1u);
}

TEST(Forwarder, ChooseAppendsWhatDecideReturns) {
  // decide() is kept only for perfbench; it is choose() into a fresh
  // vector: same targets, same draws.
  const RuleSet rules = ten_way_rules();
  for (const SelectionMode mode : {SelectionMode::kTopK, SelectionMode::kRandomK}) {
    const Forwarder forwarder({.k = 3, .mode = mode});
    util::Rng decide_rng(9);
    util::Rng choose_rng(9);
    std::vector<HostId> buffer{7, 7};  // earlier targets stay put
    for (int trial = 0; trial < 10; ++trial) {
      const std::size_t before = buffer.size();
      const auto decided = forwarder.decide(rules, trial % 2 == 0 ? 1 : 99, decide_rng);
      const std::size_t added =
          forwarder.choose(rules, trial % 2 == 0 ? 1 : 99, choose_rng, buffer);
      ASSERT_EQ(added, decided.targets.size());
      EXPECT_EQ(decided.flood, added == 0);
      EXPECT_EQ(std::vector<HostId>(buffer.begin() + static_cast<std::ptrdiff_t>(before),
                                    buffer.end()),
                decided.targets);
    }
    EXPECT_EQ(buffer[0], 7u);
    EXPECT_EQ(buffer[1], 7u);
  }
}

TEST(Forwarder, EmptyRuleSetAlwaysFloods) {
  Forwarder forwarder;
  util::Rng rng(6);
  const RuleSet empty;
  std::vector<HostId> targets;
  EXPECT_EQ(forwarder.choose(empty, 1, rng, targets), 0u);
  EXPECT_TRUE(targets.empty());
}

TEST(Forwarder, ConfigIsAccessible) {
  Forwarder forwarder({.k = 3, .mode = SelectionMode::kRandomK});
  EXPECT_EQ(forwarder.config().k, 3u);
  EXPECT_EQ(forwarder.config().mode, SelectionMode::kRandomK);
}

}  // namespace
}  // namespace aar::core
