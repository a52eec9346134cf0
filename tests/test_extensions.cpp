// Tests for the Section VI future-work extensions: confidence-based pruning,
// query-dimension rules, and rule-driven topology adaptation.

#include <gtest/gtest.h>

#include <memory>

#include "core/dimensioned.hpp"
#include "core/ruleset.hpp"
#include "overlay/assoc_policy.hpp"
#include "overlay/topology.hpp"
#include "sim/experiment.hpp"

namespace aar {
namespace {

using core::HostId;
using trace::QueryReplyPair;

QueryReplyPair pair(trace::Guid guid, HostId source, HostId replier,
                    trace::QueryKey query = 0) {
  return {.time = 0.0,
          .guid = guid,
          .source_host = source,
          .replying_neighbor = replier,
          .query = query};
}

// --- confidence pruning -------------------------------------------------------

TEST(ConfidencePruning, DropsLowConfidenceRules) {
  std::vector<QueryReplyPair> pairs;
  trace::Guid guid = 0;
  // Host 1: 8 replies via 100, 2 via 101 -> confidences 0.8 and 0.2.
  for (int i = 0; i < 8; ++i) pairs.push_back(pair(++guid, 1, 100));
  for (int i = 0; i < 2; ++i) pairs.push_back(pair(++guid, 1, 101));
  const core::RuleSet strict = core::RuleSet::build(pairs, 1, 0.5);
  EXPECT_TRUE(strict.matches(1, 100));
  EXPECT_FALSE(strict.matches(1, 101));
  const core::RuleSet loose = core::RuleSet::build(pairs, 1, 0.1);
  EXPECT_TRUE(loose.matches(1, 101));
}

TEST(ConfidencePruning, ZeroThresholdIsNoop) {
  std::vector<QueryReplyPair> pairs{pair(1, 1, 100), pair(2, 1, 101)};
  const core::RuleSet a = core::RuleSet::build(pairs, 1, 0.0);
  const core::RuleSet b = core::RuleSet::build(pairs, 1);
  EXPECT_EQ(a.num_rules(), b.num_rules());
  EXPECT_EQ(a.num_rules(), 2u);
}

TEST(ConfidencePruning, ExactBoundaryIsKept) {
  std::vector<QueryReplyPair> pairs;
  trace::Guid guid = 0;
  for (int i = 0; i < 5; ++i) pairs.push_back(pair(++guid, 1, 100));
  for (int i = 0; i < 5; ++i) pairs.push_back(pair(++guid, 1, 101));
  // Both rules have confidence exactly 0.5.
  const core::RuleSet rules = core::RuleSet::build(pairs, 1, 0.5);
  EXPECT_EQ(rules.num_rules(), 2u);
}

TEST(ConfidencePruning, ComposesWithSupportPruning) {
  std::vector<QueryReplyPair> pairs;
  trace::Guid guid = 0;
  for (int i = 0; i < 3; ++i) pairs.push_back(pair(++guid, 1, 100));
  pairs.push_back(pair(++guid, 1, 101));
  // (1,101): support 1 < 2 and confidence 0.25 < 0.5 — both prune it.
  const core::RuleSet rules = core::RuleSet::build(pairs, 2, 0.5);
  EXPECT_EQ(rules.num_rules(), 1u);
  EXPECT_TRUE(rules.matches(1, 100));
}

// --- dimensioned (query-topic) rules ------------------------------------------

TEST(DimensionedRules, SeparatesTopicsUnderOneHost) {
  // Host 1 asks about topic 0 (answered by 100) and topic 1 (answered by
  // 200).  Plain host rules pick one consequent list for both; dimensioned
  // rules keep them apart.
  std::vector<QueryReplyPair> pairs;
  trace::Guid guid = 0;
  for (int i = 0; i < 6; ++i) pairs.push_back(pair(++guid, 1, 100, 42));
  for (int i = 0; i < 4; ++i) pairs.push_back(pair(++guid, 1, 200, 1042));
  const auto dim = core::category_dimension();  // query / 1000
  const auto rules = core::DimensionedRuleSet::build(pairs, 2, dim);
  EXPECT_TRUE(rules.matches(1, 0, 100));
  EXPECT_FALSE(rules.matches(1, 0, 200));
  EXPECT_TRUE(rules.matches(1, 1, 200));
  EXPECT_FALSE(rules.matches(1, 1, 100));
  EXPECT_EQ(rules.top_k(1, 0, 1), (std::vector<HostId>{100}));
  EXPECT_EQ(rules.top_k(1, 1, 1), (std::vector<HostId>{200}));
  EXPECT_EQ(rules.num_antecedents(), 2u);
}

TEST(DimensionedRules, SupportPruningPerDimension) {
  std::vector<QueryReplyPair> pairs;
  trace::Guid guid = 0;
  for (int i = 0; i < 5; ++i) pairs.push_back(pair(++guid, 1, 100, 0));
  pairs.push_back(pair(++guid, 1, 200, 1000));  // one observation only
  const auto rules =
      core::DimensionedRuleSet::build(pairs, 3, core::category_dimension());
  EXPECT_TRUE(rules.covers(1, 0));
  EXPECT_FALSE(rules.covers(1, 1));
}

TEST(DimensionedRules, EvaluateMatchesByDimension) {
  std::vector<QueryReplyPair> train;
  trace::Guid guid = 0;
  for (int i = 0; i < 4; ++i) train.push_back(pair(++guid, 1, 100, 0));
  for (int i = 0; i < 4; ++i) train.push_back(pair(++guid, 1, 200, 1000));
  const auto dim = core::category_dimension();
  const auto rules = core::DimensionedRuleSet::build(train, 2, dim);

  // Test: topic-0 query answered by the topic-1 neighbor -> covered, miss.
  const std::vector<QueryReplyPair> test{
      pair(100, 1, 100, 0),    // covered + success
      pair(101, 1, 200, 0),    // covered (dim 0 known) + miss (wrong replier)
      pair(102, 1, 200, 1000), // covered + success
      pair(103, 1, 100, 5000), // dim 5 unknown -> uncovered
  };
  const core::BlockMeasures m = core::evaluate_dimensioned(rules, test, dim);
  EXPECT_EQ(m.total_queries, 4u);
  EXPECT_EQ(m.covered, 3u);
  EXPECT_EQ(m.successful, 2u);
}

TEST(DimensionedRules, BeatsPlainRulesOnMultiInterestTraffic) {
  // Synthetic two-interest host where plain host rules cap success at the
  // dominant interest's share, but dimensioned rules track both.
  std::vector<QueryReplyPair> train;
  std::vector<QueryReplyPair> test;
  util::Rng rng(3);
  trace::Guid guid = 0;
  auto gen = [&](std::vector<QueryReplyPair>& out, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      const bool topic_a = rng.chance(0.6);
      out.push_back(pair(++guid, 1, topic_a ? 100 : 200,
                         topic_a ? 0 : 1000));
    }
  };
  gen(train, 400);
  gen(test, 400);
  const auto dim = core::category_dimension();
  const auto dimensioned = core::DimensionedRuleSet::build(train, 10, dim);
  const core::RuleSet plain = core::RuleSet::build(train, 10);

  const double dim_success =
      core::evaluate_dimensioned(dimensioned, test, dim).success();
  // Plain top-1 forwarding would hit only the dominant topic; emulate with
  // evaluate_forwarding at k = 1.
  util::Rng rng2(4);
  const core::Forwarder top1({.k = 1});
  const double plain_success =
      core::evaluate_forwarding(plain, test, top1, rng2).success();
  EXPECT_GT(dim_success, 0.95);         // both topics routed correctly
  EXPECT_LT(plain_success, 0.75);       // capped near the 0.6 dominant share
}

TEST(DimensionedRules, EmptyIsEmpty) {
  const core::DimensionedRuleSet rules;
  EXPECT_TRUE(rules.empty());
  EXPECT_FALSE(rules.covers(1, 0));
  EXPECT_TRUE(rules.top_k(1, 0, 3).empty());
}

// --- topology adaptation -------------------------------------------------------

overlay::AssociationRoutingPolicy* teach(sim::Engine& net,
                                         overlay::NodeId node,
                                         overlay::NodeId upstream,
                                         overlay::NodeId downstream) {
  auto* policy =
      dynamic_cast<overlay::AssociationRoutingPolicy*>(&net.policy(node));
  EXPECT_NE(policy, nullptr);
  overlay::Query query;
  for (trace::Guid g = 1; g <= 8; ++g) {
    query.guid = 1'000 * node + g;
    policy->on_reply_path(query, node, upstream, downstream);
  }
  return policy;
}

sim::EngineConfig tiny_net_config() {
  sim::EngineConfig config;
  config.seed = 5;
  config.files_per_node = 4;
  config.content.files = 100;
  config.content.categories = 4;
  return config;
}

TEST(TopologyAdaptation, AddsTheThirdNodeShortcut) {
  // Line 0 - 1 - 2 - 3.  Teach: node 0 routes its own queries to 1; node 1
  // routes queries from 0 to 2.  Adaptation should add edge 0 - 2.
  overlay::Graph line(4);
  line.add_edge(0, 1);
  line.add_edge(1, 2);
  line.add_edge(2, 3);
  sim::Engine net(tiny_net_config(), std::move(line), [](overlay::NodeId) {
    return std::make_unique<overlay::AssociationRoutingPolicy>(
        overlay::AssociationPolicyConfig{.rebuild_every = 4, .min_support = 2});
  });
  teach(net, 0, 0, 1);  // own queries -> neighbor 1
  teach(net, 1, 0, 2);  // queries from 0 -> neighbor 2

  ASSERT_FALSE(net.graph().has_edge(0, 2));
  const sim::AdaptationReport report = sim::adapt_topology(net);
  EXPECT_EQ(report.adopters, 4u);
  EXPECT_GE(report.asked, 1u);
  EXPECT_EQ(report.edges_added, 1u);
  EXPECT_TRUE(net.graph().has_edge(0, 2));
}

TEST(TopologyAdaptation, ExistingLinksAreCountedNotDuplicated) {
  overlay::Graph triangle(3);
  triangle.add_edge(0, 1);
  triangle.add_edge(1, 2);
  triangle.add_edge(0, 2);
  sim::Engine net(tiny_net_config(), std::move(triangle), [](overlay::NodeId) {
    return std::make_unique<overlay::AssociationRoutingPolicy>(
        overlay::AssociationPolicyConfig{.rebuild_every = 4, .min_support = 2});
  });
  teach(net, 0, 0, 1);
  teach(net, 1, 0, 2);
  const std::size_t edges_before = net.graph().num_edges();
  const sim::AdaptationReport report = sim::adapt_topology(net);
  EXPECT_EQ(report.edges_added, 0u);
  EXPECT_EQ(report.already_linked, 1u);
  EXPECT_EQ(net.graph().num_edges(), edges_before);
}

TEST(TopologyAdaptation, NonAdoptersAreSkipped) {
  overlay::Graph line(3);
  line.add_edge(0, 1);
  line.add_edge(1, 2);
  sim::Engine net(tiny_net_config(), std::move(line), [](overlay::NodeId) {
    return std::make_unique<overlay::FloodingPolicy>();
  });
  const sim::AdaptationReport report = sim::adapt_topology(net);
  EXPECT_EQ(report.adopters, 0u);
  EXPECT_EQ(report.edges_added, 0u);
}

TEST(TopologyAdaptation, RespectsPerNodeCap) {
  // Star of rules: node 0 has own-query rules to 1 and 2; both name distinct
  // third nodes — with cap 1 only one link is added.
  overlay::Graph g(5);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 4);
  sim::Engine net(tiny_net_config(), std::move(g), [](overlay::NodeId) {
    return std::make_unique<overlay::AssociationRoutingPolicy>(
        overlay::AssociationPolicyConfig{.rebuild_every = 4, .min_support = 2});
  });
  teach(net, 0, 0, 1);
  teach(net, 0, 0, 2);
  teach(net, 1, 0, 3);
  teach(net, 2, 0, 4);
  const sim::AdaptationReport report =
      sim::adapt_topology(net, /*max_new_links_per_node=*/1);
  EXPECT_EQ(report.edges_added, 1u);
}

}  // namespace
}  // namespace aar
