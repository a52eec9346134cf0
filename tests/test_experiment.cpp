// Integration tests over the full overlay stack: network construction,
// warm-up, measurement, and the paper's headline traffic claim.  Every
// experiment runs at one and at four threads; the statistics must match
// exactly.

#include "sim/experiment.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "overlay/assoc_policy.hpp"

namespace aar::sim {
namespace {

using overlay::AssociationRoutingPolicy;
using overlay::FloodingPolicy;
using overlay::KRandomWalkPolicy;
using overlay::PolicyFactory;
using overlay::RoutingPolicy;

ExperimentConfig small_experiment() {
  ExperimentConfig config;
  config.seed = 11;
  config.nodes = 400;
  config.attach = 3;
  config.warmup_queries = 1'200;
  config.measure_queries = 1'200;
  config.engine.files_per_node = 16;
  config.engine.content.files = 4'000;
  config.engine.content.categories = 32;
  return config;
}

/// run_experiment on fresh networks at one and at four threads.
TrafficStats experiment(const std::string& label, ExperimentConfig config,
                        const PolicyFactory& factory) {
  config.engine.threads = 1;
  Engine serial = make_network(config, factory);
  const TrafficStats stats = run_experiment(label, serial, config);
  config.engine.threads = 4;
  Engine parallel = make_network(config, factory);
  const TrafficStats other = run_experiment(label, parallel, config);
  EXPECT_EQ(other.queries, stats.queries) << label;
  EXPECT_EQ(other.hits, stats.hits) << label;
  EXPECT_EQ(other.fallbacks, stats.fallbacks) << label;
  EXPECT_EQ(other.rule_routed, stats.rule_routed) << label;
  EXPECT_EQ(other.total_messages.mean(), stats.total_messages.mean()) << label;
  EXPECT_EQ(other.query_messages.mean(), stats.query_messages.mean()) << label;
  EXPECT_EQ(other.nodes_reached.mean(), stats.nodes_reached.mean()) << label;
  EXPECT_EQ(other.hops.mean(), stats.hops.mean()) << label;
  return stats;
}

PolicyFactory flooding() {
  return [](overlay::NodeId) { return std::make_unique<FloodingPolicy>(); };
}

TEST(Experiment, NetworkConstructionIsSound) {
  const auto config = small_experiment();
  const Engine net = make_network(config, flooding());
  EXPECT_EQ(net.num_nodes(), config.nodes);
  EXPECT_TRUE(net.graph().is_connected());
  for (NodeId n = 0; n < net.num_nodes(); ++n) {
    EXPECT_GT(net.store_size(n), 0u);
    EXPECT_EQ(net.profile(n).breadth(), config.engine.interest_breadth);
  }
}

TEST(Experiment, StatsAreInternallyConsistent) {
  const auto config = small_experiment();
  const TrafficStats stats = experiment("flooding", config, flooding());
  EXPECT_EQ(stats.queries, config.measure_queries);
  EXPECT_LE(stats.hits, stats.queries);
  EXPECT_GE(stats.success_rate(), 0.0);
  EXPECT_LE(stats.success_rate(), 1.0);
  EXPECT_EQ(stats.hops.count(), stats.hits);
  EXPECT_EQ(stats.total_messages.count(), stats.queries);
  // Flooding never rule-routes and never falls back.
  EXPECT_EQ(stats.rule_routed, 0u);
  EXPECT_EQ(stats.fallbacks, 0u);
}

TEST(Experiment, FloodingFindsMostContent) {
  const auto config = small_experiment();
  const TrafficStats stats = experiment("flooding", config, flooding());
  // TTL 7 over a 400-node BA graph reaches everyone; only queries for
  // content with zero replicas miss.
  EXPECT_GT(stats.success_rate(), 0.7);
  EXPECT_NEAR(stats.nodes_reached.mean(), 400.0, 20.0);
}

// The paper's headline: association routing cuts traffic dramatically while
// keeping result quality, because flooding remains the fallback.
TEST(Experiment, AssociationRoutingBeatsFloodingOnTraffic) {
  const auto config = small_experiment();
  const TrafficStats flood = experiment("flooding", config, flooding());
  const TrafficStats assoc =
      experiment("association", config, [](overlay::NodeId) {
        return std::make_unique<AssociationRoutingPolicy>();
      });

  // At least 25% query-traffic reduction on this workload...
  EXPECT_LT(assoc.query_messages.mean(), 0.75 * flood.query_messages.mean());
  // ...with success within 3 points of flooding (fallback catches misses).
  EXPECT_GT(assoc.success_rate(), flood.success_rate() - 0.03);
  // And rules actually fire.
  EXPECT_GT(assoc.rule_routed_rate(), 0.05);
}

TEST(Experiment, PartialAdoptionStillHelps) {
  const auto config = small_experiment();
  // 50% of nodes adopt association routing, the rest flood (the paper's
  // incremental-deployment story, Section III-B).
  const TrafficStats mixed = experiment(
      "mixed", config,
      [](overlay::NodeId node) -> std::unique_ptr<RoutingPolicy> {
        if (node % 2 == 0) return std::make_unique<AssociationRoutingPolicy>();
        return std::make_unique<FloodingPolicy>();
      });
  const TrafficStats flood = experiment("flooding", config, flooding());

  EXPECT_LT(mixed.query_messages.mean(), flood.query_messages.mean());
  EXPECT_GT(mixed.success_rate(), flood.success_rate() - 0.05);
}

TEST(Experiment, WalksTradeMessagesForLatency) {
  auto config = small_experiment();
  config.options.ttl = 256;
  const TrafficStats walks = experiment("k-rw", config, [](overlay::NodeId) {
    return std::make_unique<KRandomWalkPolicy>(16);
  });
  const TrafficStats flood =
      experiment("flooding", small_experiment(), flooding());

  EXPECT_LT(walks.query_messages.mean(), flood.query_messages.mean());
  EXPECT_GT(walks.hops.mean(), flood.hops.mean());
}

TEST(Experiment, DeterministicGivenSeed) {
  const auto config = small_experiment();
  auto run_once = [&config] {
    Engine net = make_network(config, flooding());
    return run_experiment("flooding", net, config);
  };
  const TrafficStats a = run_once();
  const TrafficStats b = run_once();
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_DOUBLE_EQ(a.query_messages.mean(), b.query_messages.mean());
}

}  // namespace
}  // namespace aar::sim
