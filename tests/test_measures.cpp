#include "core/measures.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "util/rng.hpp"

namespace aar::core {
namespace {

using trace::QueryReplyPair;

QueryReplyPair pair(trace::Guid guid, HostId source, HostId replier) {
  return {.time = 0.0, .guid = guid, .source_host = source,
          .replying_neighbor = replier};
}

RuleSet rules_from(const std::vector<QueryReplyPair>& pairs,
                   std::uint32_t min_support = 1) {
  return RuleSet::build(pairs, min_support);
}

TEST(Measures, EmptyBlock) {
  const RuleSet rules;
  const BlockMeasures m = evaluate(rules, {});
  EXPECT_EQ(m.total_queries, 0u);
  EXPECT_EQ(m.coverage(), 0.0);
  EXPECT_EQ(m.success(), 0.0);
}

TEST(Measures, PerfectRuleSet) {
  const std::vector<QueryReplyPair> train{pair(1, 10, 100), pair(2, 20, 200)};
  const RuleSet rules = rules_from(train);
  const std::vector<QueryReplyPair> test{pair(3, 10, 100), pair(4, 20, 200)};
  const BlockMeasures m = evaluate(rules, test);
  EXPECT_EQ(m.total_queries, 2u);
  EXPECT_EQ(m.covered, 2u);
  EXPECT_EQ(m.successful, 2u);
  EXPECT_DOUBLE_EQ(m.coverage(), 1.0);
  EXPECT_DOUBLE_EQ(m.success(), 1.0);
}

TEST(Measures, CoverageWithoutSuccess) {
  // Antecedent known, but replies come through a different neighbor.
  const RuleSet rules = rules_from({pair(1, 10, 100)});
  const std::vector<QueryReplyPair> test{pair(2, 10, 999)};
  const BlockMeasures m = evaluate(rules, test);
  EXPECT_EQ(m.total_queries, 1u);
  EXPECT_EQ(m.covered, 1u);
  EXPECT_EQ(m.successful, 0u);
  EXPECT_DOUBLE_EQ(m.coverage(), 1.0);
  EXPECT_DOUBLE_EQ(m.success(), 0.0);
}

TEST(Measures, UncoveredQueriesLowerAlphaOnly) {
  const RuleSet rules = rules_from({pair(1, 10, 100)});
  const std::vector<QueryReplyPair> test{
      pair(2, 10, 100),  // covered + successful
      pair(3, 55, 100),  // unknown source -> uncovered
  };
  const BlockMeasures m = evaluate(rules, test);
  EXPECT_DOUBLE_EQ(m.coverage(), 0.5);
  EXPECT_DOUBLE_EQ(m.success(), 1.0);  // of the covered one
}

TEST(Measures, QueriesAreUniqueByGuid) {
  const RuleSet rules = rules_from({pair(1, 10, 100)});
  // One query answered through three neighbors: counts once for N and n.
  const std::vector<QueryReplyPair> test{
      pair(7, 10, 500), pair(7, 10, 501), pair(7, 10, 100)};
  const BlockMeasures m = evaluate(rules, test);
  EXPECT_EQ(m.total_queries, 1u);
  EXPECT_EQ(m.covered, 1u);
  EXPECT_EQ(m.successful, 1u);  // any matching reply counts, once
}

TEST(Measures, MultiReplySuccessCountsOnce) {
  const RuleSet rules = rules_from({pair(1, 10, 100), pair(2, 10, 101)});
  const std::vector<QueryReplyPair> test{pair(9, 10, 100), pair(9, 10, 101)};
  const BlockMeasures m = evaluate(rules, test);
  EXPECT_EQ(m.successful, 1u);
}

TEST(Measures, SuccessIsConditionalOnCoverage) {
  // An uncovered query whose pair happens to exist in no rule: success
  // denominator only counts covered queries.
  const RuleSet rules = rules_from({pair(1, 10, 100)});
  const std::vector<QueryReplyPair> test{
      pair(2, 10, 100), pair(3, 20, 100), pair(4, 30, 100), pair(5, 40, 100)};
  const BlockMeasures m = evaluate(rules, test);
  EXPECT_EQ(m.total_queries, 4u);
  EXPECT_EQ(m.covered, 1u);
  EXPECT_EQ(m.successful, 1u);
  EXPECT_DOUBLE_EQ(m.coverage(), 0.25);
  EXPECT_DOUBLE_EQ(m.success(), 1.0);
}

TEST(Measures, ValuesAlwaysInUnitInterval) {
  util::Rng rng(11);
  std::vector<QueryReplyPair> train;
  std::vector<QueryReplyPair> test;
  for (int i = 0; i < 500; ++i) {
    train.push_back(pair(static_cast<trace::Guid>(i),
                         static_cast<HostId>(rng.below(30)),
                         static_cast<HostId>(100 + rng.below(8))));
    test.push_back(pair(static_cast<trace::Guid>(1000 + i),
                        static_cast<HostId>(rng.below(40)),
                        static_cast<HostId>(100 + rng.below(8))));
  }
  for (std::uint32_t threshold : {1u, 3u, 10u, 100u}) {
    const BlockMeasures m = evaluate(RuleSet::build(train, threshold), test);
    EXPECT_GE(m.coverage(), 0.0);
    EXPECT_LE(m.coverage(), 1.0);
    EXPECT_GE(m.success(), 0.0);
    EXPECT_LE(m.success(), 1.0);
    EXPECT_LE(m.successful, m.covered);
    EXPECT_LE(m.covered, m.total_queries);
  }
}

// The edge-case convention documented in core/measures.hpp: both ratios are
// total functions and never NaN, even where the mathematical definition hits
// 0/0.  These pins are what per-block series, the adaptive thresholds, and
// the metrics exporter rely on.

TEST(Measures, EdgeCaseAlphaIsZeroNotNaNWhenNoQueries) {
  // N = 0: α's denominator vanishes.  Convention: α ≡ 0, never NaN.
  const BlockMeasures m = evaluate(RuleSet(), {});
  EXPECT_EQ(m.total_queries, 0u);
  EXPECT_FALSE(std::isnan(m.coverage()));
  EXPECT_FALSE(std::isnan(m.success()));
  EXPECT_DOUBLE_EQ(m.coverage(), 0.0);
  EXPECT_DOUBLE_EQ(m.success(), 0.0);
}

TEST(Measures, EdgeCaseRhoIsZeroNotNaNWhenNothingCovered) {
  // N > 0 but n = 0: ρ = s/n hits 0/0.  Convention: resolve pessimistically
  // to 0 rather than propagating NaN into series and thresholds.
  const RuleSet rules = rules_from({pair(1, 10, 100)});
  const std::vector<QueryReplyPair> test{pair(2, 77, 100), pair(3, 88, 100)};
  const BlockMeasures m = evaluate(rules, test);
  EXPECT_EQ(m.total_queries, 2u);
  EXPECT_EQ(m.covered, 0u);
  EXPECT_FALSE(std::isnan(m.success()));
  EXPECT_DOUBLE_EQ(m.success(), 0.0);
}

TEST(Measures, EdgeCaseCoveredButUnsuccessfulBlock) {
  // Every query covered, none successful: α = 1, ρ = 0 — the measures are
  // independent by construction, and neither degenerates.
  const RuleSet rules = rules_from({pair(1, 10, 100), pair(2, 20, 200)});
  const std::vector<QueryReplyPair> test{pair(3, 10, 999), pair(4, 20, 999)};
  const BlockMeasures m = evaluate(rules, test);
  EXPECT_EQ(m.total_queries, 2u);
  EXPECT_EQ(m.covered, 2u);
  EXPECT_EQ(m.successful, 0u);
  EXPECT_DOUBLE_EQ(m.coverage(), 1.0);
  EXPECT_DOUBLE_EQ(m.success(), 0.0);
}

TEST(Measures, EdgeCaseDefaultConstructedMeasuresAreFinite) {
  // A BlockMeasures that never saw a block (e.g. an untested slot in a
  // pre-sized result array) still reports finite ratios.
  const BlockMeasures m;
  EXPECT_TRUE(std::isfinite(m.coverage()));
  EXPECT_TRUE(std::isfinite(m.success()));
}

TEST(Measures, EmptyRuleSetCoversNothing) {
  const RuleSet rules;
  const std::vector<QueryReplyPair> test{pair(1, 10, 100), pair(2, 11, 100)};
  const BlockMeasures m = evaluate(rules, test);
  EXPECT_EQ(m.total_queries, 2u);
  EXPECT_EQ(m.covered, 0u);
  EXPECT_EQ(m.success(), 0.0);
}

TEST(Measures, ReusedGuidTableForgetsThePreviousBlock) {
  // The same GUIDs in consecutive blocks are new queries in each: a shared
  // table must give every block exactly what a fresh table gives, through
  // growth (a 40-pair block after a 3-pair one) and back.
  const RuleSet rules = rules_from({pair(1, 10, 100)});
  const std::vector<QueryReplyPair> big = [] {
    std::vector<QueryReplyPair> pairs;
    for (trace::Guid g = 0; g < 40; ++g) {
      pairs.push_back(pair(g % 20, 10, g % 3 == 0 ? 100 : 7));
    }
    return pairs;
  }();
  const std::vector<QueryReplyPair> small{pair(1, 10, 7), pair(1, 10, 100), pair(2, 55, 100)};
  GuidStates states;
  for (const auto* block : {&small, &big, &small, &big}) {
    const BlockMeasures fresh = evaluate(rules, *block);
    const BlockMeasures reused = evaluate(rules, *block, states);
    EXPECT_EQ(reused.total_queries, fresh.total_queries);
    EXPECT_EQ(reused.covered, fresh.covered);
    EXPECT_EQ(reused.successful, fresh.successful);
  }
  EXPECT_EQ(evaluate(rules, small, states).successful, 1u);
}

TEST(Measures, LaterPairOfAGuidMatchesAgainstItsOwnSource) {
  // Buggy clients reuse GUIDs, so one query's later reply can name another
  // source.  Coverage is decided at first sight, but each reply is matched
  // against the rules of the source it carries.
  const RuleSet rules = rules_from({pair(1, 10, 100), pair(2, 20, 200)});
  const std::vector<QueryReplyPair> test{pair(7, 10, 200), pair(7, 20, 200)};
  const BlockMeasures m = evaluate(rules, test);
  EXPECT_EQ(m.total_queries, 1u);
  EXPECT_EQ(m.covered, 1u);
  EXPECT_EQ(m.successful, 1u);  // matches(20, 200), not matches(10, 200)

  // The converse: the first source's rule would match, the later one's not.
  const std::vector<QueryReplyPair> swapped{pair(8, 10, 77), pair(8, 20, 100)};
  EXPECT_EQ(evaluate(rules, swapped).successful, 0u);

  // An uncovered first sight stays uncovered whatever source follows.
  const std::vector<QueryReplyPair> late{pair(9, 55, 100), pair(9, 10, 100)};
  const BlockMeasures u = evaluate(rules, late);
  EXPECT_EQ(u.covered, 0u);
  EXPECT_EQ(u.successful, 0u);
}

TEST(Measures, GuidTableRejectsBlocksPastItsQueryIndex) {
  GuidStates states;
  EXPECT_THROW(states.begin_block((std::size_t{1} << 30) + 1), std::length_error);
}

}  // namespace
}  // namespace aar::core
