// Hybrid shortcut+association policy, and cross-seed property sweeps over
// the paper's headline orderings (the shapes must hold for any seed, not
// just the calibrated default).

#include <gtest/gtest.h>

#include <memory>

#include "core/strategy.hpp"
#include "core/trace_simulator.hpp"
#include "overlay/hybrid.hpp"
#include "sim/experiment.hpp"
#include "trace/generator.hpp"

namespace aar {
namespace {

// --- hybrid policy ---------------------------------------------------------------

TEST(HybridPolicy, DelegatesLearningAndProbing) {
  overlay::HybridConfig config;
  config.association.rebuild_every = 4;
  config.association.min_support = 2;
  overlay::HybridShortcutsAssociationPolicy policy(config);
  EXPECT_EQ(policy.name(), "shortcuts+association");
  EXPECT_TRUE(policy.wants_flood_fallback());

  overlay::Query query;
  // Association side learns from reply paths...
  for (trace::Guid g = 1; g <= 8; ++g) {
    query.guid = g;
    policy.on_reply_path(query, 0, 7, 3);
  }
  EXPECT_TRUE(policy.association().rules().matches(7, 3));
  // ...and the shortcut list learns from search results.
  policy.on_search_result(query, 0, true, 42);
  std::vector<overlay::NodeId> probes;
  policy.probe_candidates(query, 0, probes);
  EXPECT_EQ(probes, (std::vector<overlay::NodeId>{42}));
}

TEST(HybridPolicy, RoutesThroughAssociationRules) {
  overlay::HybridConfig config;
  config.association.rebuild_every = 4;
  config.association.min_support = 2;
  overlay::HybridShortcutsAssociationPolicy policy(config);
  overlay::Query query;
  for (trace::Guid g = 1; g <= 8; ++g) {
    query.guid = g;
    policy.on_reply_path(query, 0, 7, 3);
  }
  util::Rng rng(1);
  std::vector<overlay::NodeId> out;
  const std::vector<overlay::NodeId> neighbors{1, 3, 9};
  EXPECT_TRUE(policy.route(query, 0, 7, neighbors, rng, out));
  EXPECT_EQ(out, (std::vector<overlay::NodeId>{3}));
}

TEST(HybridPolicy, BeatsOrMatchesPlainAssociationOnTraffic) {
  sim::ExperimentConfig config;
  config.seed = 61;
  config.nodes = 400;
  config.warmup_queries = 1'200;
  config.measure_queries = 1'200;
  sim::Engine assoc_net = sim::make_network(config, [](overlay::NodeId) {
    return std::make_unique<overlay::AssociationRoutingPolicy>();
  });
  const auto assoc = sim::run_experiment("assoc", assoc_net, config);
  sim::Engine hybrid_net = sim::make_network(config, [](overlay::NodeId) {
    return std::make_unique<overlay::HybridShortcutsAssociationPolicy>();
  });
  const auto hybrid = sim::run_experiment("hybrid", hybrid_net, config);
  EXPECT_LT(hybrid.total_messages.mean(), 1.1 * assoc.total_messages.mean());
  EXPECT_GT(hybrid.success_rate(), assoc.success_rate() - 0.02);
}

// --- cross-seed orderings ----------------------------------------------------------

class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  std::vector<trace::QueryReplyPair> make_pairs() {
    trace::TraceConfig config;
    config.seed = GetParam();
    config.block_size = 2'000;
    config.active_hosts = 60;
    trace::TraceGenerator generator(config);
    return generator.generate_pairs(50 * 2'000);
  }
};

TEST_P(SeedSweep, PaperOrderingsHold) {
  const auto pairs = make_pairs();
  core::StaticRuleset static_strategy(10);
  core::SlidingWindow sliding(10);
  core::LazySlidingWindow lazy(10, 10);
  core::AdaptiveSlidingWindow adaptive(10, 10);
  core::IncrementalRuleset incremental(10);

  const auto r_static = core::run_trace_simulation(static_strategy, pairs, 2'000);
  const auto r_sliding = core::run_trace_simulation(sliding, pairs, 2'000);
  const auto r_lazy = core::run_trace_simulation(lazy, pairs, 2'000);
  const auto r_adaptive = core::run_trace_simulation(adaptive, pairs, 2'000);
  const auto r_incremental =
      core::run_trace_simulation(incremental, pairs, 2'000);

  // The paper's qualitative ordering on both measures:
  //   static < lazy < {adaptive <= sliding} < incremental (coverage)
  EXPECT_LT(r_static.avg_coverage(), r_lazy.avg_coverage());
  EXPECT_LT(r_lazy.avg_coverage(), r_sliding.avg_coverage());
  EXPECT_LE(r_adaptive.avg_coverage(), r_sliding.avg_coverage() + 0.02);
  EXPECT_GT(r_incremental.avg_coverage(), r_sliding.avg_coverage());

  EXPECT_LT(r_static.avg_success(), r_lazy.avg_success());
  EXPECT_LT(r_lazy.avg_success(), r_sliding.avg_success());

  // Adaptive regenerates less often than sliding, more than lazy.
  EXPECT_LT(r_adaptive.rulesets_generated, r_sliding.rulesets_generated);
  EXPECT_GT(r_adaptive.rulesets_generated, r_lazy.rulesets_generated);

  // Static's success must collapse: the tail mean is near zero.
  EXPECT_LT(r_static.success.tail_mean(10), 0.15);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(101, 202, 303, 404, 505));

}  // namespace
}  // namespace aar
