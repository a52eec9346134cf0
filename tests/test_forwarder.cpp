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
  const ForwardDecision decision = forwarder.decide(sample_rules(), 99, rng);
  EXPECT_TRUE(decision.flood);
  EXPECT_FALSE(decision.rule_routed());
  EXPECT_TRUE(decision.targets.empty());
}

TEST(Forwarder, TopKPicksHighestSupport) {
  Forwarder forwarder({.k = 2, .mode = SelectionMode::kTopK});
  util::Rng rng(2);
  const ForwardDecision decision = forwarder.decide(sample_rules(), 1, rng);
  EXPECT_TRUE(decision.rule_routed());
  EXPECT_EQ(decision.targets, (std::vector<HostId>{100, 101}));
}

TEST(Forwarder, KOneIsSingleBestNeighbor) {
  Forwarder forwarder({.k = 1});
  util::Rng rng(3);
  const ForwardDecision decision = forwarder.decide(sample_rules(), 1, rng);
  EXPECT_EQ(decision.targets, (std::vector<HostId>{100}));
}

TEST(Forwarder, KLargerThanRulesReturnsAll) {
  Forwarder forwarder({.k = 10});
  util::Rng rng(4);
  const ForwardDecision decision = forwarder.decide(sample_rules(), 2, rng);
  EXPECT_EQ(decision.targets, (std::vector<HostId>{200}));
  EXPECT_FALSE(decision.flood);
}

TEST(Forwarder, RandomKStaysWithinConsequents) {
  Forwarder forwarder({.k = 2, .mode = SelectionMode::kRandomK});
  util::Rng rng(5);
  const RuleSet rules = sample_rules();
  std::set<HostId> seen;
  for (int i = 0; i < 100; ++i) {
    const ForwardDecision decision = forwarder.decide(rules, 1, rng);
    EXPECT_EQ(decision.targets.size(), 2u);
    for (HostId h : decision.targets) {
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
  for (int trial = 0; trial < 50; ++trial) {
    const auto picked = forwarder.decide(rules, 1, rng).targets;
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
    auto picked = forwarder.decide(rules, 1, rng).targets;
    std::sort(picked.begin(), picked.end());
    draws.insert(picked);
  }
  EXPECT_GT(draws.size(), 1u);
}

TEST(Forwarder, ChooseAppendsWhatDecideReturns) {
  // choose() is decide() into a caller's buffer: same targets, same draws.
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
  EXPECT_TRUE(forwarder.decide(empty, 1, rng).flood);
}

TEST(Forwarder, ConfigIsAccessible) {
  Forwarder forwarder({.k = 3, .mode = SelectionMode::kRandomK});
  EXPECT_EQ(forwarder.config().k, 3u);
  EXPECT_EQ(forwarder.config().mode, SelectionMode::kRandomK);
}

}  // namespace
}  // namespace aar::core
