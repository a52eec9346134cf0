#include "overlay/assoc_policy.hpp"
#include "overlay/routing_indices.hpp"
#include "overlay/shortcuts.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

namespace aar::overlay {
namespace {

Query make_query(workload::Category category = 0) {
  return Query{.guid = 1, .target = 0, .category = category, .origin = 0};
}

/// The simulator routes every event into one shared emission buffer, so
/// route() must leave what `out` already holds alone: routed into an `out`
/// of sentinels, it appends after them exactly what it appends to an empty
/// `out`, with the same verdict.
void expect_appends_after_existing(RoutingPolicy& policy, NodeId from,
                                   const std::vector<NodeId>& neighbors) {
  const std::vector<NodeId> sentinels{901, 902, 903};
  util::Rng empty_rng(11);
  std::vector<NodeId> from_empty;
  const bool empty_directed =
      policy.route(make_query(), 0, from, neighbors, empty_rng, from_empty);
  util::Rng rng(11);
  std::vector<NodeId> out = sentinels;
  const bool directed = policy.route(make_query(), 0, from, neighbors, rng, out);
  EXPECT_EQ(directed, empty_directed);
  ASSERT_GE(out.size(), sentinels.size());
  EXPECT_EQ(std::vector<NodeId>(out.begin(), out.begin() + 3), sentinels);
  EXPECT_EQ(std::vector<NodeId>(out.begin() + 3, out.end()), from_empty);
}

// --- AssociationRoutingPolicy ------------------------------------------------

TEST(AssociationPolicy, FloodsBeforeAnyRulesExist) {
  AssociationRoutingPolicy policy;
  util::Rng rng(1);
  std::vector<NodeId> out;
  const std::vector<NodeId> neighbors{1, 2, 3};
  const bool directed = policy.route(make_query(), 0, 2, neighbors, rng, out);
  EXPECT_FALSE(directed);
  EXPECT_EQ(out, (std::vector<NodeId>{1, 3}));  // all except `from`
  EXPECT_TRUE(policy.floods_all());
}

TEST(AssociationPolicy, LearnsRuleAndRoutesToIt) {
  AssociationPolicyConfig config;
  config.min_support = 2;
  config.rebuild_every = 4;
  AssociationRoutingPolicy policy(config);
  util::Rng rng(2);
  // Teach: queries from neighbor 7 are answered through neighbor 3.
  for (trace::Guid g = 0; g < 8; ++g) {
    Query q = make_query();
    q.guid = 100 + g;
    policy.on_reply_path(q, /*self=*/0, /*upstream=*/7, /*downstream=*/3);
  }
  EXPECT_TRUE(policy.rules().covers(7));
  EXPECT_FALSE(policy.floods_all());
  std::vector<NodeId> out;
  const std::vector<NodeId> neighbors{1, 3, 7, 9};
  const bool directed = policy.route(make_query(), 0, 7, neighbors, rng, out);
  EXPECT_TRUE(directed);
  EXPECT_EQ(out, (std::vector<NodeId>{3}));
  EXPECT_EQ(policy.rule_hits(), 1u);
}

TEST(AssociationPolicy, ConsequentNoLongerNeighborFallsBackToFlood) {
  AssociationPolicyConfig config;
  config.min_support = 2;
  config.rebuild_every = 4;
  AssociationRoutingPolicy policy(config);
  util::Rng rng(3);
  for (trace::Guid g = 0; g < 8; ++g) {
    Query q = make_query();
    q.guid = g;
    policy.on_reply_path(q, 0, 7, 3);
  }
  std::vector<NodeId> out;
  const std::vector<NodeId> neighbors{1, 9};  // 3 has churned away
  const bool directed = policy.route(make_query(), 0, 7, neighbors, rng, out);
  EXPECT_FALSE(directed);
  EXPECT_EQ(out, (std::vector<NodeId>{1, 9}));
}

TEST(AssociationPolicy, NeverForwardsBackToSender) {
  AssociationPolicyConfig config;
  config.min_support = 2;
  config.rebuild_every = 4;
  AssociationRoutingPolicy policy(config);
  util::Rng rng(4);
  // Degenerate learned rule: {7} -> {7}.
  for (trace::Guid g = 0; g < 8; ++g) {
    Query q = make_query();
    q.guid = g;
    policy.on_reply_path(q, 0, 7, 7);
  }
  std::vector<NodeId> out;
  const std::vector<NodeId> neighbors{7, 9};
  policy.route(make_query(), 0, 7, neighbors, rng, out);
  EXPECT_EQ(out, (std::vector<NodeId>{9}));  // flooded, sender excluded
}

TEST(AssociationPolicy, SlidingWindowForgetsOldPairs) {
  AssociationPolicyConfig config;
  config.window = 16;
  config.rebuild_every = 16;
  config.min_support = 3;
  AssociationRoutingPolicy policy(config);
  // 16 observations of (7 -> 3) ...
  for (trace::Guid g = 0; g < 16; ++g) {
    Query q = make_query();
    q.guid = g;
    policy.on_reply_path(q, 0, 7, 3);
  }
  EXPECT_TRUE(policy.rules().matches(7, 3));
  // ... displaced by 16 observations of (8 -> 4).
  for (trace::Guid g = 16; g < 32; ++g) {
    Query q = make_query();
    q.guid = g;
    policy.on_reply_path(q, 0, 8, 4);
  }
  EXPECT_FALSE(policy.rules().covers(7));
  EXPECT_TRUE(policy.rules().matches(8, 4));
}

TEST(AssociationPolicy, RouteAppendsAfterExistingEntries) {
  AssociationPolicyConfig config;
  config.min_support = 2;
  config.rebuild_every = 4;
  AssociationRoutingPolicy policy(config);
  for (trace::Guid g = 0; g < 8; ++g) {
    Query q = make_query();
    q.guid = g;
    policy.on_reply_path(q, 0, 7, 3);
  }
  // Rule-routed: {7} -> {3}.
  expect_appends_after_existing(policy, 7, {1, 3, 7, 9});
  // The consequent has churned away: the rule matches but nothing survives,
  // so the policy floods.
  expect_appends_after_existing(policy, 7, {1, 9});
  // No rule for antecedent 8: flood.
  expect_appends_after_existing(policy, 8, {1, 3, 8, 9});
  EXPECT_EQ(policy.rule_hits(), 2u);
}

TEST(AssociationPolicy, WantsFloodFallback) {
  AssociationRoutingPolicy policy;
  EXPECT_TRUE(policy.wants_flood_fallback());
  EXPECT_FALSE(policy.allows_revisit());
}

// --- InterestShortcutsPolicy -------------------------------------------------

TEST(ShortcutsPolicy, StartsEmptyAndLearnsProviders) {
  InterestShortcutsPolicy policy;
  std::vector<NodeId> probes;
  policy.probe_candidates(make_query(), 0, probes);
  EXPECT_TRUE(probes.empty());
  policy.on_search_result(make_query(), 0, true, 42);
  probes.clear();
  policy.probe_candidates(make_query(), 0, probes);
  EXPECT_EQ(probes, (std::vector<NodeId>{42}));
}

TEST(ShortcutsPolicy, MoveToFrontOnRepeatSuccess) {
  InterestShortcutsPolicy policy;
  policy.on_search_result(make_query(), 0, true, 1);
  policy.on_search_result(make_query(), 0, true, 2);
  policy.on_search_result(make_query(), 0, true, 3);
  EXPECT_EQ(policy.shortcuts(), (std::vector<NodeId>{3, 2, 1}));
  policy.on_search_result(make_query(), 0, true, 1);
  EXPECT_EQ(policy.shortcuts(), (std::vector<NodeId>{1, 3, 2}));
}

TEST(ShortcutsPolicy, ListIsBounded) {
  InterestShortcutsPolicy policy({.list_size = 3, .probes = 3});
  for (NodeId n = 1; n <= 10; ++n) {
    policy.on_search_result(make_query(), 0, true, n);
  }
  EXPECT_EQ(policy.shortcuts(), (std::vector<NodeId>{10, 9, 8}));
}

TEST(ShortcutsPolicy, MissesAndSelfAreIgnored) {
  InterestShortcutsPolicy policy;
  policy.on_search_result(make_query(), 5, false, 9);
  policy.on_search_result(make_query(), 5, true, kNoNode);
  policy.on_search_result(make_query(), 5, true, 5);  // self
  EXPECT_TRUE(policy.shortcuts().empty());
}

TEST(ShortcutsPolicy, ProbesRespectLimit) {
  InterestShortcutsPolicy policy({.list_size = 10, .probes = 2});
  for (NodeId n = 1; n <= 5; ++n) {
    policy.on_search_result(make_query(), 0, true, n);
  }
  std::vector<NodeId> probes;
  policy.probe_candidates(make_query(), 0, probes);
  EXPECT_EQ(probes, (std::vector<NodeId>{5, 4}));
}

TEST(ShortcutsPolicy, RouteAppendsAfterExistingEntries) {
  InterestShortcutsPolicy policy;
  policy.on_search_result(make_query(), 0, true, 3);
  expect_appends_after_existing(policy, 7, {1, 3, 7, 9});
}

// --- FloodingPolicy ----------------------------------------------------------

TEST(FloodingPolicy, RouteAppendsAfterExistingEntries) {
  FloodingPolicy policy;
  expect_appends_after_existing(policy, 7, {1, 3, 7, 9});
}

// --- RoutingIndexTable / policy ----------------------------------------------

TEST(RoutingIndexTable, LineGraphPointsTowardContent) {
  // 0 - 1 - 2; all documents of category 0 live at node 2.
  Graph line(3);
  line.add_edge(0, 1);
  line.add_edge(1, 2);
  std::vector<std::vector<double>> docs{{0.0}, {0.0}, {10.0}};
  RoutingIndexTable table(line, docs, /*horizon=*/3, /*decay=*/0.5);
  // From node 0, the only neighbor (slot 0 = node 1) must show discounted
  // mass (10 * 0.5 through node 1's view discounted once more = 2.5 .. 5).
  EXPECT_GT(table.goodness(0, 0, 0), 0.0);
  // From node 1, neighbor node 2 (whichever slot) beats neighbor node 0.
  const auto n1 = line.neighbors(1);
  double toward2 = 0.0, toward0 = 0.0;
  for (std::size_t slot = 0; slot < n1.size(); ++slot) {
    (n1[slot] == 2 ? toward2 : toward0) = table.goodness(1, slot, 0);
  }
  EXPECT_GT(toward2, toward0);
}

TEST(RoutingIndicesPolicy, ForwardsToBestNeighborOnly) {
  Graph line(3);
  line.add_edge(0, 1);
  line.add_edge(1, 2);
  std::vector<std::vector<double>> docs{{0.0}, {0.0}, {10.0}};
  auto table = std::make_shared<RoutingIndexTable>(line, docs, 3, 0.5);
  RoutingIndicesPolicy policy(table, {.fan_out = 1});
  util::Rng rng(5);
  std::vector<NodeId> out;
  const auto neighbors = line.neighbors(1);
  const bool directed =
      policy.route(make_query(0), 1, 0, neighbors, rng, out);
  EXPECT_TRUE(directed);
  EXPECT_EQ(out, (std::vector<NodeId>{2}));
}

TEST(RoutingIndicesPolicy, ExcludesSender) {
  Graph star(3);
  star.add_edge(0, 1);
  star.add_edge(0, 2);
  std::vector<std::vector<double>> docs{{0.0}, {5.0}, {5.0}};
  auto table = std::make_shared<RoutingIndexTable>(star, docs, 2, 0.5);
  RoutingIndicesPolicy policy(table, {.fan_out = 2});
  util::Rng rng(6);
  std::vector<NodeId> out;
  policy.route(make_query(0), 0, 1, star.neighbors(0), rng, out);
  EXPECT_EQ(out, (std::vector<NodeId>{2}));  // 1 is the sender
}

// --- KRandomWalkPolicy -------------------------------------------------------

TEST(KRandomWalkPolicy, OriginLaunchesKWalkers) {
  KRandomWalkPolicy policy(8);
  util::Rng rng(7);
  std::vector<NodeId> out;
  const std::vector<NodeId> neighbors{1, 2, 3};
  policy.route(make_query(), /*self=*/0, /*from=*/0, neighbors, rng, out);
  EXPECT_EQ(out.size(), 8u);
  for (NodeId n : out) EXPECT_NE(std::find(neighbors.begin(), neighbors.end(), n),
                                 neighbors.end());
}

TEST(KRandomWalkPolicy, IntermediateForwardsOneWalker) {
  KRandomWalkPolicy policy(8);
  util::Rng rng(8);
  std::vector<NodeId> out;
  const std::vector<NodeId> neighbors{1, 2, 3};
  policy.route(make_query(), /*self=*/5, /*from=*/2, neighbors, rng, out);
  EXPECT_EQ(out.size(), 1u);
}

}  // namespace
}  // namespace aar::overlay
