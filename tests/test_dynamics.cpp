// Graph mutation and overlay churn dynamics, plus the forwarding-aware
// evaluator used by the fan-out ablation.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/forwarder.hpp"
#include "overlay/assoc_policy.hpp"
#include "overlay/graph.hpp"
#include "sim/experiment.hpp"

namespace aar {
namespace {

// --- Graph removal -------------------------------------------------------------

TEST(GraphMutation, RemoveEdge) {
  overlay::Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  EXPECT_TRUE(g.remove_edge(0, 1));
  EXPECT_FALSE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(1, 0));
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_FALSE(g.remove_edge(0, 1));  // already gone
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(GraphMutation, RemoveThenReAdd) {
  overlay::Graph g(3);
  g.add_edge(0, 1);
  g.remove_edge(0, 1);
  EXPECT_TRUE(g.add_edge(0, 1));
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(GraphMutation, DetachRemovesAllIncidentEdges) {
  overlay::Graph g(5);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(0, 3);
  g.add_edge(3, 4);
  EXPECT_EQ(g.detach(0), 3u);
  EXPECT_EQ(g.degree(0), 0u);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_TRUE(g.has_edge(3, 4));
  // Neighbors' adjacency is cleaned too.
  EXPECT_EQ(g.degree(1), 0u);
  EXPECT_EQ(g.degree(2), 0u);
}

TEST(GraphMutation, DetachIsolatedIsNoop) {
  overlay::Graph g(2);
  EXPECT_EQ(g.detach(0), 0u);
}

// --- Network churn --------------------------------------------------------------
//
// Churn draws from the shared workload rng in the serial phase, so a churned
// network searches identically at one and at four threads.

constexpr std::size_t kThreads[] = {1, 4};

sim::ExperimentConfig churn_config(std::size_t threads = 1) {
  sim::ExperimentConfig config;
  config.seed = 19;
  config.nodes = 200;
  config.engine.files_per_node = 8;
  config.engine.content.files = 1'000;
  config.engine.content.categories = 16;
  config.engine.threads = threads;
  return config;
}

overlay::PolicyFactory flooding() {
  return [](overlay::NodeId) {
    return std::make_unique<overlay::FloodingPolicy>();
  };
}

TEST(NetworkChurn, ReplacePeerResetsStateAndRelinks) {
  auto config = churn_config();
  sim::Engine net = sim::make_network(config, [](overlay::NodeId) {
    return std::make_unique<overlay::AssociationRoutingPolicy>(
        overlay::AssociationPolicyConfig{.rebuild_every = 4, .min_support = 2});
  });
  const overlay::NodeId victim = 7;
  // Give the victim's policy some state.
  auto& policy = dynamic_cast<overlay::AssociationRoutingPolicy&>(
      net.policy(victim));
  overlay::Query query;
  for (trace::Guid g = 1; g <= 8; ++g) {
    query.guid = g;
    policy.on_reply_path(query, victim, 3, 4);
  }
  EXPECT_FALSE(policy.rules().empty());
  const std::vector<workload::FileId> old_files(net.store(victim).begin(),
                                                net.store(victim).end());

  net.replace_peer(victim, 3);

  auto& fresh = dynamic_cast<overlay::AssociationRoutingPolicy&>(
      net.policy(victim));
  EXPECT_TRUE(fresh.rules().empty());              // newcomer knows nothing
  EXPECT_GE(net.graph().degree(victim), 3u);       // re-linked
  EXPECT_GT(net.store_size(victim), 0u);           // new content
  // With a 1,000-file catalogue an identical store is (practically)
  // impossible; both are sorted, so any difference shows.
  EXPECT_FALSE(std::ranges::equal(net.store(victim), old_files));
}

TEST(NetworkChurn, ChurnKeepsNetworkSearchable) {
  std::vector<double> messages;
  for (const std::size_t threads : kThreads) {
    sim::Engine net = sim::make_network(churn_config(threads), flooding());
    util::Rng rng(5);
    sim::TrafficStats before;
    sim::run_queries(net, 300, {}, rng, &before);
    for (int epoch = 0; epoch < 5; ++epoch) net.churn(20, 3);
    sim::TrafficStats after;
    sim::run_queries(net, 300, {}, rng, &after);
    EXPECT_GT(after.success_rate(), before.success_rate() - 0.15);
    EXPECT_GT(net.graph().num_edges(), 100u);  // did not disintegrate
    messages.push_back(after.total_messages.mean());
  }
  EXPECT_EQ(messages.front(), messages.back());
}

TEST(NetworkChurn, EdgeCountStaysRoughlyStable) {
  sim::Engine net = sim::make_network(churn_config(), flooding());
  const std::size_t edges_before = net.graph().num_edges();
  net.churn(100, 3);  // half the network replaced
  const std::size_t edges_after = net.graph().num_edges();
  EXPECT_GT(edges_after, edges_before / 2);
  EXPECT_LT(edges_after, edges_before * 2);
}

// --- evaluate_forwarding ----------------------------------------------------------

using trace::QueryReplyPair;

QueryReplyPair pair(trace::Guid guid, core::HostId source,
                    core::HostId replier) {
  return {.time = 0.0, .guid = guid, .source_host = source,
          .replying_neighbor = replier};
}

TEST(EvaluateForwarding, SuccessRequiresChosenTarget) {
  std::vector<QueryReplyPair> train;
  trace::Guid guid = 0;
  for (int i = 0; i < 6; ++i) train.push_back(pair(++guid, 1, 100));
  for (int i = 0; i < 3; ++i) train.push_back(pair(++guid, 1, 101));
  const core::RuleSet rules = core::RuleSet::build(train, 1);

  // Top-1 forwards only to 100: replies via 101 are covered misses.
  const std::vector<QueryReplyPair> test{pair(50, 1, 100), pair(51, 1, 101)};
  util::Rng rng(1);
  const core::Forwarder top1({.k = 1});
  const core::BlockMeasures m1 =
      core::evaluate_forwarding(rules, test, top1, rng);
  EXPECT_EQ(m1.covered, 2u);
  EXPECT_EQ(m1.successful, 1u);

  const core::Forwarder top2({.k = 2});
  const core::BlockMeasures m2 =
      core::evaluate_forwarding(rules, test, top2, rng);
  EXPECT_EQ(m2.successful, 2u);
}

TEST(EvaluateForwarding, NeverExceedsRuleSetEvaluate) {
  // Property: forwarding success at any k is bounded by the plain measure.
  util::Rng data_rng(9);
  std::vector<QueryReplyPair> train;
  std::vector<QueryReplyPair> test;
  for (int i = 0; i < 600; ++i) {
    train.push_back(pair(static_cast<trace::Guid>(i),
                         static_cast<core::HostId>(data_rng.below(10)),
                         static_cast<core::HostId>(100 + data_rng.below(6))));
    test.push_back(pair(static_cast<trace::Guid>(10'000 + i),
                        static_cast<core::HostId>(data_rng.below(10)),
                        static_cast<core::HostId>(100 + data_rng.below(6))));
  }
  const core::RuleSet rules = core::RuleSet::build(train, 5);
  const core::BlockMeasures full = core::evaluate(rules, test);
  util::Rng rng(2);
  for (std::size_t k : {1u, 2u, 3u, 10u}) {
    const core::Forwarder forwarder({.k = k});
    const core::BlockMeasures m =
        core::evaluate_forwarding(rules, test, forwarder, rng);
    EXPECT_EQ(m.covered, full.covered);
    EXPECT_LE(m.successful, full.successful);
  }
}

TEST(EvaluateForwarding, OneDecisionPerQuery) {
  // Multiple replies to one GUID reuse the query's forwarding choice.
  std::vector<QueryReplyPair> train;
  trace::Guid guid = 0;
  for (int i = 0; i < 4; ++i) train.push_back(pair(++guid, 1, 100));
  for (int i = 0; i < 4; ++i) train.push_back(pair(++guid, 1, 101));
  const core::RuleSet rules = core::RuleSet::build(train, 1);
  // Same GUID answered through both neighbors; top-1 picks exactly one, so
  // success counts once regardless of which reply matches.
  const std::vector<QueryReplyPair> test{pair(99, 1, 101), pair(99, 1, 100)};
  util::Rng rng(3);
  const core::Forwarder top1({.k = 1});
  const core::BlockMeasures m =
      core::evaluate_forwarding(rules, test, top1, rng);
  EXPECT_EQ(m.total_queries, 1u);
  EXPECT_EQ(m.covered, 1u);
  EXPECT_EQ(m.successful, 1u);
}

}  // namespace
}  // namespace aar
