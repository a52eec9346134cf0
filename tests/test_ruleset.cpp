#include "core/ruleset.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace aar::core {
namespace {

using trace::QueryReplyPair;

/// n pairs (source -> replier), one query each.
void add_pairs(std::vector<QueryReplyPair>& pairs, HostId source,
               HostId replier, int count) {
  for (int i = 0; i < count; ++i) {
    pairs.push_back(QueryReplyPair{
        .time = static_cast<double>(pairs.size()),
        .guid = static_cast<trace::Guid>(pairs.size() + 1),
        .source_host = source,
        .replying_neighbor = replier,
    });
  }
}

TEST(RuleSet, BuildCountsAndPrunes) {
  std::vector<QueryReplyPair> pairs;
  add_pairs(pairs, 1, 100, 5);
  add_pairs(pairs, 1, 101, 2);
  add_pairs(pairs, 2, 100, 3);
  add_pairs(pairs, 3, 102, 1);

  const RuleSet rules = RuleSet::build(pairs, 3);
  EXPECT_TRUE(rules.covers(1));
  EXPECT_TRUE(rules.covers(2));
  EXPECT_FALSE(rules.covers(3));            // below threshold
  EXPECT_TRUE(rules.matches(1, 100));
  EXPECT_FALSE(rules.matches(1, 101));      // pair pruned
  EXPECT_TRUE(rules.matches(2, 100));
  EXPECT_FALSE(rules.matches(2, 101));
  EXPECT_EQ(rules.num_antecedents(), 2u);
  EXPECT_EQ(rules.num_rules(), 2u);
}

TEST(RuleSet, MinSupportOneKeepsEverything) {
  std::vector<QueryReplyPair> pairs;
  add_pairs(pairs, 1, 100, 1);
  add_pairs(pairs, 2, 101, 1);
  const RuleSet rules = RuleSet::build(pairs, 1);
  EXPECT_EQ(rules.num_rules(), 2u);
}

TEST(RuleSet, EmptyInput) {
  const RuleSet rules = RuleSet::build({}, 1);
  EXPECT_TRUE(rules.empty());
  EXPECT_FALSE(rules.covers(1));
  EXPECT_FALSE(rules.matches(1, 2));
  EXPECT_TRUE(rules.consequents(1).empty());
  EXPECT_TRUE(rules.top_k(1, 3).empty());
}

TEST(RuleSet, MatchesOnAnUncoveredAntecedentIsFalse) {
  std::vector<QueryReplyPair> pairs;
  add_pairs(pairs, 1, 100, 3);
  add_pairs(pairs, 2, 100, 1);  // pruned at min_support 2
  const RuleSet rules = RuleSet::build(pairs, 2);
  ASSERT_TRUE(rules.covers(1));
  EXPECT_FALSE(rules.covers(2));
  EXPECT_FALSE(rules.matches(2, 100));  // pruned antecedent
  EXPECT_FALSE(rules.matches(3, 100));  // never seen
  EXPECT_FALSE(rules.matches(100, 1));  // a consequent is not an antecedent
  EXPECT_TRUE(rules.consequents(3).empty());
  EXPECT_TRUE(rules.top_k(3, 2).empty());
}

TEST(RuleSet, ConsequentsSortedBySupportDescending) {
  std::vector<QueryReplyPair> pairs;
  add_pairs(pairs, 1, 100, 2);
  add_pairs(pairs, 1, 101, 7);
  add_pairs(pairs, 1, 102, 4);
  const RuleSet rules = RuleSet::build(pairs, 1);
  const auto consequents = rules.consequents(1);
  ASSERT_EQ(consequents.size(), 3u);
  EXPECT_EQ(consequents[0].neighbor, 101u);
  EXPECT_EQ(consequents[0].support, 7u);
  EXPECT_EQ(consequents[1].neighbor, 102u);
  EXPECT_EQ(consequents[2].neighbor, 100u);
}

TEST(RuleSet, TiesBreakByNeighborId) {
  std::vector<QueryReplyPair> pairs;
  add_pairs(pairs, 1, 200, 3);
  add_pairs(pairs, 1, 100, 3);
  const RuleSet rules = RuleSet::build(pairs, 1);
  const auto consequents = rules.consequents(1);
  ASSERT_EQ(consequents.size(), 2u);
  EXPECT_EQ(consequents[0].neighbor, 100u);  // deterministic tie-break
}

/// Every (antecedent, consequents) entry, antecedents ascending.
std::vector<std::pair<HostId, std::vector<Consequent>>> entries(const RuleSet& rules) {
  std::vector<std::pair<HostId, std::vector<Consequent>>> out;
  rules.for_each([&](HostId antecedent, std::span<const Consequent> consequents) {
    out.emplace_back(antecedent, std::vector<Consequent>(consequents.begin(),
                                                         consequents.end()));
  });
  return out;
}

TEST(RuleSet, IterationVisitsAntecedentsAscendingWithRankedConsequents) {
  std::vector<QueryReplyPair> pairs;
  add_pairs(pairs, 9, 300, 2);
  add_pairs(pairs, 1, 100, 2);
  add_pairs(pairs, 5, 201, 1);
  add_pairs(pairs, 5, 200, 4);
  add_pairs(pairs, 1, 101, 3);
  const RuleSet rules = RuleSet::build(pairs, 1);
  const auto visited = entries(rules);
  ASSERT_EQ(visited.size(), 3u);
  EXPECT_EQ(visited[0].first, 1u);
  EXPECT_EQ(visited[0].second,
            (std::vector<Consequent>{{101, 3}, {100, 2}}));
  EXPECT_EQ(visited[1].first, 5u);
  EXPECT_EQ(visited[1].second,
            (std::vector<Consequent>{{200, 4}, {201, 1}}));
  EXPECT_EQ(visited[2].first, 9u);
  EXPECT_EQ(visited[2].second, (std::vector<Consequent>{{300, 2}}));
  EXPECT_TRUE(entries(RuleSet{}).empty());
}

TEST(RuleSet, TopKTruncates) {
  std::vector<QueryReplyPair> pairs;
  add_pairs(pairs, 1, 100, 5);
  add_pairs(pairs, 1, 101, 4);
  add_pairs(pairs, 1, 102, 3);
  const RuleSet rules = RuleSet::build(pairs, 1);
  EXPECT_EQ(rules.top_k(1, 2), (std::vector<HostId>{100, 101}));
  EXPECT_EQ(rules.top_k(1, 10).size(), 3u);
  EXPECT_TRUE(rules.top_k(99, 2).empty());
}

TEST(RuleSet, SupportCountsAreExact) {
  std::vector<QueryReplyPair> pairs;
  add_pairs(pairs, 7, 300, 13);
  const RuleSet rules = RuleSet::build(pairs, 10);
  const auto consequents = rules.consequents(7);
  ASSERT_EQ(consequents.size(), 1u);
  EXPECT_EQ(consequents[0].support, 13u);
}

TEST(RuleSetSerialization, RoundTripsExactly) {
  std::vector<QueryReplyPair> pairs;
  add_pairs(pairs, 1, 100, 5);
  add_pairs(pairs, 1, 101, 3);
  add_pairs(pairs, 42, 200, 7);
  const RuleSet original = RuleSet::build(pairs, 1);
  std::stringstream buffer;
  original.save(buffer);
  const RuleSet loaded = RuleSet::load(buffer);
  EXPECT_EQ(loaded, original);
  EXPECT_EQ(loaded.num_rules(), 3u);
  EXPECT_EQ(loaded.top_k(1, 1), (std::vector<HostId>{100}));
}

TEST(RuleSetSerialization, SupportPrunedSetRoundTrips) {
  // Persistence must preserve exactly what pruning left, nothing more.
  std::vector<QueryReplyPair> pairs;
  add_pairs(pairs, 1, 100, 6);
  add_pairs(pairs, 1, 101, 2);   // pruned at min_support 3
  add_pairs(pairs, 2, 102, 1);   // antecedent pruned entirely
  const RuleSet original = RuleSet::build(pairs, 3);
  ASSERT_EQ(original.num_rules(), 1u);
  std::stringstream buffer;
  original.save(buffer);
  const RuleSet loaded = RuleSet::load(buffer);
  EXPECT_EQ(loaded, original);
  EXPECT_TRUE(loaded.matches(1, 100));
  EXPECT_FALSE(loaded.matches(1, 101));
  EXPECT_FALSE(loaded.covers(2));
}

TEST(RuleSetSerialization, ConfidencePrunedSetRoundTrips) {
  std::vector<QueryReplyPair> pairs;
  add_pairs(pairs, 1, 100, 8);   // confidence 8/10
  add_pairs(pairs, 1, 101, 2);   // confidence 2/10 — pruned at 0.5
  const RuleSet original = RuleSet::build(pairs, 1, /*min_confidence=*/0.5);
  ASSERT_EQ(original.num_rules(), 1u);
  std::stringstream buffer;
  original.save(buffer);
  const RuleSet loaded = RuleSet::load(buffer);
  EXPECT_EQ(loaded, original);
  const auto consequents = loaded.consequents(1);
  ASSERT_EQ(consequents.size(), 1u);
  EXPECT_EQ(consequents[0].neighbor, 100u);
  EXPECT_EQ(consequents[0].support, 8u);
}

TEST(RuleSetSerialization, PrunedToEmptyRoundTrips) {
  // A set whose every rule fell to pruning is a valid (empty) persisted set.
  std::vector<QueryReplyPair> pairs;
  add_pairs(pairs, 1, 100, 2);
  const RuleSet original = RuleSet::build(pairs, 100);
  ASSERT_TRUE(original.empty());
  std::stringstream buffer;
  original.save(buffer);
  const RuleSet loaded = RuleSet::load(buffer);
  EXPECT_EQ(loaded, original);
  EXPECT_TRUE(loaded.empty());
  EXPECT_EQ(loaded.num_rules(), 0u);
}

TEST(RuleSetSerialization, EmptyRoundTrips) {
  std::stringstream buffer;
  RuleSet{}.save(buffer);
  EXPECT_TRUE(RuleSet::load(buffer).empty());
}

TEST(RuleSetSerialization, SaveIsDeterministicallyOrdered) {
  std::vector<QueryReplyPair> pairs;
  add_pairs(pairs, 9, 300, 2);
  add_pairs(pairs, 1, 100, 2);
  const RuleSet rules = RuleSet::build(pairs, 1);
  std::stringstream a;
  std::stringstream b;
  rules.save(a);
  rules.save(b);
  EXPECT_EQ(a.str(), b.str());
  // Antecedents ascending in the text.
  EXPECT_LT(a.str().find("1,100"), a.str().find("9,300"));
}

TEST(RuleSetSerialization, RejectsMissingHeader) {
  std::stringstream buffer("1,2,3\n");
  EXPECT_THROW((void)RuleSet::load(buffer), std::runtime_error);
}

TEST(RuleSetSerialization, RejectsMalformedRows) {
  std::stringstream buffer("antecedent,consequent,support\n1,abc,3\n");
  EXPECT_THROW((void)RuleSet::load(buffer), std::runtime_error);
  std::stringstream missing("antecedent,consequent,support\n1,2\n");
  EXPECT_THROW((void)RuleSet::load(missing), std::runtime_error);
}

/// The message load() throws for `text`, or "" when it loads.
std::string load_error(const std::string& text) {
  std::stringstream buffer(text);
  try {
    (void)RuleSet::load(buffer);
  } catch (const std::runtime_error& error) {
    return error.what();
  }
  return "";
}

TEST(RuleSetSerialization, RejectsADuplicateRuleNamingItsLine) {
  // build() and the miner never emit one (antecedent, consequent) row
  // twice; a flat range could not hold both, so load refuses the file.
  const std::string error = load_error(
      "antecedent,consequent,support\n1,2,5\n1,3,4\n1,2,7\n");
  EXPECT_NE(error.find("duplicate"), std::string::npos) << error;
  EXPECT_NE(error.find("line 4"), std::string::npos) << error;
  // The same consequent under another antecedent is a different rule.
  EXPECT_EQ(load_error("antecedent,consequent,support\n1,2,5\n3,2,5\n"), "");
}

TEST(RuleSetSerialization, RejectsAZeroSupportNamingItsLine) {
  // A zero-support rule would make covers(1) and matches(1,2) true on no
  // evidence; nothing that mines rules writes one.
  const std::string error =
      load_error("antecedent,consequent,support\n4,5,1\n1,2,0\n");
  EXPECT_NE(error.find("zero support"), std::string::npos) << error;
  EXPECT_NE(error.find("line 3"), std::string::npos) << error;
}

TEST(RuleSetSerialization, LoadRanksRowsGivenInAnyOrder) {
  std::stringstream buffer(
      "antecedent,consequent,support\n9,1,2\n1,7,3\n9,4,6\n1,8,3\n");
  const RuleSet rules = RuleSet::load(buffer);
  EXPECT_EQ(rules.top_k(9, 2), (std::vector<HostId>{4, 1}));
  EXPECT_EQ(rules.top_k(1, 2), (std::vector<HostId>{7, 8}));  // tie: lower id
  std::stringstream saved;
  rules.save(saved);
  EXPECT_EQ(saved.str(),
            "antecedent,consequent,support\n1,7,3\n1,8,3\n9,4,6\n9,1,2\n");
}

TEST(RuleSet, EqualityIgnoresStorageLayout) {
  // The same rules reached through different update histories compare and
  // serialize equal, whatever ranges the flat array holds.
  std::vector<QueryReplyPair> pairs;
  add_pairs(pairs, 3, 30, 2);
  add_pairs(pairs, 1, 10, 4);
  add_pairs(pairs, 1, 11, 1);
  const RuleSet built = RuleSet::build(pairs, 1);
  std::stringstream text(
      "antecedent,consequent,support\n1,11,1\n3,30,2\n1,10,4\n");
  const RuleSet loaded = RuleSet::load(text);
  EXPECT_EQ(built, loaded);
  std::vector<QueryReplyPair> more = pairs;
  add_pairs(more, 3, 31, 1);
  EXPECT_FALSE(built == RuleSet::build(more, 1));
  EXPECT_FALSE(RuleSet::build(more, 1) == built);
}

// Property sweep: pruning threshold monotonically shrinks the rule set.
class PruneSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(PruneSweep, HigherThresholdNeverAddsRules) {
  std::vector<QueryReplyPair> pairs;
  util::Rng rng(5);
  for (int i = 0; i < 2'000; ++i) {
    add_pairs(pairs, static_cast<HostId>(rng.below(20)),
              static_cast<HostId>(100 + rng.below(10)), 1);
  }
  const std::uint32_t threshold = GetParam();
  const RuleSet loose = RuleSet::build(pairs, threshold);
  const RuleSet strict = RuleSet::build(pairs, threshold + 5);
  EXPECT_LE(strict.num_rules(), loose.num_rules());
  // Every strict rule exists in the loose set.
  strict.for_each([&](HostId antecedent, std::span<const Consequent> consequents) {
    for (const auto& consequent : consequents) {
      EXPECT_TRUE(loose.matches(antecedent, consequent.neighbor));
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Thresholds, PruneSweep,
                         ::testing::Values(1, 2, 5, 10, 20));

}  // namespace
}  // namespace aar::core
