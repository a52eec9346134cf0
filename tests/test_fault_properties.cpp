// Property tests for search robustness under faults, the zero-fault
// differential (FaultPlan::none() is bit-for-bit the pre-fault simulator),
// and the stale-rule churn regressions (replace_peer purges mined rules and
// shortcuts that name the departed NodeId, at every peer that can hold one).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "fault/fault.hpp"
#include "mining/incremental_miner.hpp"
#include "overlay/assoc_policy.hpp"
#include "overlay/fault_experiment.hpp"
#include "overlay/hybrid.hpp"
#include "overlay/shortcuts.hpp"
#include "overlay/topology.hpp"
#include "sim/experiment.hpp"

namespace aar::overlay {
namespace {

using sim::Engine;
using sim::EngineConfig;

EngineConfig small_config(std::uint64_t seed) {
  EngineConfig config;
  config.seed = seed;
  config.files_per_node = 8;
  config.content.files = 400;
  config.content.categories = 10;
  return config;
}

Engine make_ba_network(std::size_t nodes, std::uint64_t seed,
                       const PolicyFactory& factory) {
  util::Rng rng(seed);
  Graph graph = make_barabasi_albert(nodes, 3, rng);
  return Engine(small_config(seed + 1), std::move(graph), factory);
}

PolicyFactory flooding_factory() {
  return [](NodeId) { return std::make_unique<FloodingPolicy>(); };
}

PolicyFactory association_factory() {
  return [](NodeId) { return std::make_unique<AssociationRoutingPolicy>(); };
}

TEST(FaultProperties, RetryBudgetAndBackoffInvariants) {
  Engine net = make_ba_network(120, 5, association_factory());
  fault::FaultPlan plan;
  plan.drop = 0.2;
  plan.max_delay = 2;
  net.install_faults(
      std::make_unique<fault::FaultInjector>(plan, fault::FaultSchedule{}, 5,
                                             net.num_nodes()));

  SearchOptions options;
  options.ttl = 5;
  options.timeout_stamps = 40;
  options.max_retries = 3;
  options.backoff_base = 2;
  options.backoff_jitter = 2;

  util::Rng driver(99);
  std::size_t retried = 0, timed_out = 0, degraded = 0;
  for (int i = 0; i < 400; ++i) {
    const auto origin = static_cast<NodeId>(driver.below(net.num_nodes()));
    const SearchOutcome out =
        net.search(origin, net.sample_target(origin), options);

    // Retries never exceed the budget, and every retry is stamped.
    EXPECT_LE(out.retries_used, options.max_retries);
    EXPECT_EQ(out.retry_stamps.size(), out.retries_used);
    // Backoff stamps strictly increase (exponential base clamped >= 1).
    for (std::size_t r = 1; r < out.retry_stamps.size(); ++r) {
      EXPECT_LT(out.retry_stamps[r - 1], out.retry_stamps[r]);
    }
    // The virtual clock respects the timeout budget...
    EXPECT_LE(out.elapsed_stamps, options.timeout_stamps);
    // ...and timing out precludes reporting a hit.
    if (out.timed_out) {
      EXPECT_FALSE(out.hit);
    }
    // The final forced flood is always accounted as a fallback.
    if (out.degraded_to_flood) {
      EXPECT_TRUE(out.used_fallback);
    }

    retried += out.retries_used > 0 ? 1 : 0;
    timed_out += out.timed_out ? 1 : 0;
    degraded += out.degraded_to_flood ? 1 : 0;
  }
  // Under 20% loss the ladder must actually engage.
  EXPECT_GT(retried, 0u);
  EXPECT_GT(degraded, 0u);
  (void)timed_out;  // can legitimately be zero at this loss rate
}

TEST(FaultProperties, TimedOutImpliesMissEvenUnderTinyBudgets) {
  Engine net = make_ba_network(120, 6, flooding_factory());
  fault::FaultPlan plan;
  plan.max_delay = 6;  // delays make tiny budgets bite
  net.install_faults(
      std::make_unique<fault::FaultInjector>(plan, fault::FaultSchedule{}, 6,
                                             net.num_nodes()));
  SearchOptions options;
  options.ttl = 6;
  options.timeout_stamps = 3;
  options.max_retries = 1;

  util::Rng driver(7);
  std::size_t timeouts = 0;
  for (int i = 0; i < 200; ++i) {
    const auto origin = static_cast<NodeId>(driver.below(net.num_nodes()));
    const SearchOutcome out =
        net.search(origin, net.sample_target(origin), options);
    if (out.timed_out) {
      ++timeouts;
      EXPECT_FALSE(out.hit);
    }
    EXPECT_LE(out.elapsed_stamps, options.timeout_stamps);
  }
  EXPECT_GT(timeouts, 0u);
}

TEST(FaultProperties, CrashedOriginSearchesNothing) {
  Engine net = make_ba_network(60, 8, flooding_factory());
  fault::FaultPlan plan;
  plan.peers.push_back({.node = 11, .state = fault::PeerState::crashed});
  net.install_faults(
      std::make_unique<fault::FaultInjector>(plan, fault::FaultSchedule{}, 8,
                                             net.num_nodes()));
  const SearchOutcome out = net.search(11, net.sample_target(11), {.ttl = 5});
  EXPECT_FALSE(out.hit);
  EXPECT_EQ(out.query_messages, 0u);
  EXPECT_EQ(out.nodes_reached, 0u);
}

TEST(FaultProperties, FreeRiderForwardsButNeverServes) {
  // Line 0 - 1 - 2: node 1 free-rides.  A file only node 1 holds is
  // unfindable; a file node 2 holds is still found *through* node 1.
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  Engine net(small_config(3), std::move(g), flooding_factory());

  workload::FileId only_at_1 = workload::kNoFile;
  for (const workload::FileId f : net.store(1)) {
    if (!net.store_has(0, f) && !net.store_has(2, f)) {
      only_at_1 = f;
      break;
    }
  }
  ASSERT_NE(only_at_1, workload::kNoFile);
  workload::FileId at_2 = workload::kNoFile;
  for (const workload::FileId f : net.store(2)) {
    if (!net.store_has(0, f) && !net.store_has(1, f)) {
      at_2 = f;
      break;
    }
  }
  ASSERT_NE(at_2, workload::kNoFile);

  EXPECT_TRUE(net.search(0, only_at_1, {.ttl = 3}).hit);  // sanity, no faults

  fault::FaultPlan plan;
  plan.peers.push_back({.node = 1, .state = fault::PeerState::free_riding});
  net.install_faults(std::make_unique<fault::FaultInjector>(
      plan, fault::FaultSchedule{}, 3, net.num_nodes()));
  EXPECT_FALSE(net.search(0, only_at_1, {.ttl = 3}).hit);
  EXPECT_TRUE(net.search(0, at_2, {.ttl = 3}).hit);  // forwarded through 1
}

TEST(FaultProperties, ZeroFaultInjectorIsBitForBitTransparent) {
  // The acceptance differential: FaultPlan::none() + empty schedule must
  // reproduce the injector-free simulator exactly — same outcome stream,
  // byte for byte — on the N1 bench's topology (BA, association policy),
  // including the retry ladder and timeout paths (jitter 0: the only knob
  // that would draw from a different rng stream).
  fault::Scenario scenario;
  scenario.nodes = 2'000;  // bench_n1's network size
  scenario.attach = 3;
  scenario.warmup = 400;
  scenario.queries = 300;
  scenario.epochs = 2;
  scenario.churn = 25;
  scenario.policy = "association";
  scenario.timeout = 64;
  scenario.retries = 2;
  scenario.jitter = 0;
  scenario.plan = fault::FaultPlan::none();

  const FaultRunResult with_injector =
      sim::run_fault_scenario(scenario, 7, true);
  const FaultRunResult without = sim::run_fault_scenario(scenario, 7, false);
  EXPECT_EQ(with_injector.outcome_bytes, without.outcome_bytes);
  EXPECT_EQ(with_injector.outcome_hash, without.outcome_hash);
  std::uint64_t dropped = 0;
  for (const FaultEpochStats& e : with_injector.epochs) dropped += e.dropped;
  EXPECT_EQ(dropped, 0u);
}

TEST(FaultProperties, DropZeroPlanStillLosesNothing) {
  // drop 0 with other fault machinery active (schedule, states) must not
  // lose a single message to the probabilistic paths.
  fault::Scenario scenario;
  scenario.nodes = 150;
  scenario.warmup = 100;
  scenario.queries = 150;
  scenario.epochs = 2;
  scenario.policy = "flooding";
  scenario.plan.drop = 0.0;
  scenario.plan.duplicate = 0.0;

  const FaultRunResult run = sim::run_fault_scenario(scenario, 21, true);
  std::uint64_t dropped = 0;
  for (const FaultEpochStats& e : run.epochs) dropped += e.dropped;
  EXPECT_EQ(dropped, 0u);
}

// --- stale-rule churn regression ------------------------------------------

TEST(ChurnStaleRules, PurgeHostDropsObservationsNamingTheHost) {
  mining::IncrementalRuleMiner miner({.window = 64, .min_support = 2});
  for (int i = 0; i < 6; ++i) {
    miner.add({.time = 0.0, .guid = 1, .source_host = 2, .replying_neighbor = 1});
    miner.add({.time = 0.0, .guid = 2, .source_host = 3, .replying_neighbor = 4});
  }
  miner.snapshot();
  ASSERT_FALSE(miner.ruleset().consequents(2).empty());
  ASSERT_FALSE(miner.ruleset().consequents(3).empty());

  EXPECT_EQ(miner.purge_host(1), 6u);
  miner.snapshot();
  // Every observation naming host 1 is gone; unrelated rules survive.
  EXPECT_TRUE(miner.ruleset().consequents(2).empty());
  ASSERT_FALSE(miner.ruleset().consequents(3).empty());
  EXPECT_EQ(miner.ruleset().consequents(3)[0].neighbor, 4u);

  EXPECT_EQ(miner.purge_host(99), 0u);  // unknown host: no-op
}

TEST(ChurnStaleRules, ReplacePeerPurgesRulesRoutingToDeadNodeId) {
  // Regression: before the purge hook, churn() left every other
  // node's mined rules pointing at the departed NodeId — queries kept
  // rule-routing to a fresh stranger that never earned the rule.
  Graph g(5);  // star around 0, plus 2-4 so 0 has multiple neighbors
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(0, 3);
  g.add_edge(2, 4);
  AssociationPolicyConfig config;
  config.rebuild_every = 4;
  config.min_support = 2;
  Engine net(small_config(9), std::move(g), [config](NodeId) {
    return std::make_unique<AssociationRoutingPolicy>(config);
  });

  auto& policy = dynamic_cast<AssociationRoutingPolicy&>(net.policy(0));
  Query query;
  query.guid = 1;
  query.origin = 2;
  for (int i = 0; i < 8; ++i) {
    // Replies flowing 1 -> 0 -> 2 teach node 0 the rule {from 2} -> {1}.
    policy.on_reply_path(query, 0, 2, 1);
  }
  ASSERT_FALSE(policy.rules().consequents(2).empty());
  ASSERT_EQ(policy.rules().consequents(2)[0].neighbor, 1u);

  net.replace_peer(1, 1);

  // The purge hook must have scrubbed the rule at every *other* node.
  const auto& after = dynamic_cast<AssociationRoutingPolicy&>(net.policy(0));
  EXPECT_TRUE(after.rules().consequents(2).empty());

  // And routing from node 0 no longer emits the dead NodeId.
  std::vector<NodeId> out;
  util::Rng rng(1);
  const std::vector<NodeId> neighbors(net.graph().neighbors(0).begin(),
                                      net.graph().neighbors(0).end());
  dynamic_cast<AssociationRoutingPolicy&>(net.policy(0))
      .route(query, 0, 2, neighbors, rng, out);
  for (const NodeId target : out) {
    EXPECT_NE(target, 1u) << "routed to the churned-out NodeId";
  }
}

TEST(ChurnStaleRules, ShortcutListsAlsoPurged) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(0, 3);
  Engine net(small_config(12), std::move(g), [](NodeId) {
    return std::make_unique<InterestShortcutsPolicy>();
  });
  auto& policy = dynamic_cast<InterestShortcutsPolicy&>(net.policy(0));
  Query query;
  query.origin = 0;
  policy.on_search_result(query, 0, true, 2);
  policy.on_search_result(query, 0, true, 3);
  ASSERT_EQ(policy.shortcuts().size(), 2u);

  net.replace_peer(2, 1);
  EXPECT_EQ(policy.shortcuts().size(), 1u);
  EXPECT_EQ(policy.shortcuts()[0], 3u);

  // A flooding overlay where one peer that is no neighbour of the departing
  // peer takes shortcuts through set_policy: only the learns-any list that
  // set_policy keeps brings the purge to it.
  Graph star(4);
  star.add_edge(0, 1);
  star.add_edge(0, 2);
  star.add_edge(0, 3);
  Engine flooding(small_config(13), std::move(star), flooding_factory());
  flooding.set_policy(1, std::make_unique<InterestShortcutsPolicy>());
  auto& distant = dynamic_cast<InterestShortcutsPolicy&>(flooding.policy(1));
  query.origin = 1;
  distant.on_search_result(query, 1, true, 2);
  distant.on_search_result(query, 1, true, 3);
  ASSERT_EQ(distant.shortcuts(), (std::vector<NodeId>{3, 2}));

  flooding.replace_peer(2, 1);
  EXPECT_EQ(distant.shortcuts(), std::vector<NodeId>{3});
}

TEST(ChurnStaleRules, HybridPeersPurgeRulesAndShortcuts) {
  // Regression: the hybrid policy forwarded no purge to its halves, so its
  // rules and shortcut list kept naming a departed NodeId.
  Graph g(5);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(0, 3);
  g.add_edge(2, 4);
  HybridConfig config;
  config.association.rebuild_every = 4;
  config.association.min_support = 2;
  Engine net(small_config(14), std::move(g), [config](NodeId) {
    return std::make_unique<HybridShortcutsAssociationPolicy>(config);
  });
  auto& policy = dynamic_cast<HybridShortcutsAssociationPolicy&>(net.policy(0));
  Query query;
  query.guid = 1;
  query.origin = 2;
  for (int i = 0; i < 8; ++i) policy.on_reply_path(query, 0, 2, 1);
  query.origin = 0;
  policy.on_search_result(query, 0, true, 1);
  policy.on_search_result(query, 0, true, 3);
  ASSERT_TRUE(policy.association().rules().matches(2, 1));
  ASSERT_EQ(policy.shortcuts().shortcuts().size(), 2u);

  net.replace_peer(1, 1);
  EXPECT_TRUE(policy.association().rules().consequents(2).empty());
  EXPECT_EQ(policy.shortcuts().shortcuts(), std::vector<NodeId>{3});
}

/// Does any rule of `rules` name `id`, as antecedent or consequent?
bool rules_name(const core::RuleSet& rules, NodeId id) {
  bool named = false;
  rules.for_each([&](NodeId antecedent, std::span<const core::Consequent> consequents) {
    if (antecedent == id) named = true;
    for (const core::Consequent& consequent : consequents) {
      if (consequent.neighbor == id) named = true;
    }
  });
  return named;
}

/// The rule set and shortcut list a peer's policy keeps (null when none).
struct Learned {
  const core::RuleSet* rules = nullptr;
  const std::vector<NodeId>* shortcuts = nullptr;
};

Learned learned(RoutingPolicy& policy) {
  if (const auto* hybrid =
          dynamic_cast<const HybridShortcutsAssociationPolicy*>(&policy)) {
    return {&hybrid->association().rules(), &hybrid->shortcuts().shortcuts()};
  }
  if (const auto* assoc =
          dynamic_cast<const AssociationRoutingPolicy*>(&policy)) {
    return {&assoc->rules(), nullptr};
  }
  if (const auto* shortcuts =
          dynamic_cast<const InterestShortcutsPolicy*>(&policy)) {
    return {nullptr, &shortcuts->shortcuts()};
  }
  return {};
}

// Property: over random churn schedules on a mixed overlay — association,
// shortcuts and hybrid peers, some swapped by set_policy, plus the links
// adapt_topology adds — no peer's rules (antecedent or consequent) and no
// shortcut list names a departed id after replace_peer.  Rules rebuild on
// every observation here, so a rule set always reflects its window.
TEST(ChurnStaleRules, NoLearnedStateNamesADepartedPeer) {
  AssociationPolicyConfig association;
  association.rebuild_every = 1;
  HybridConfig hybrid;
  hybrid.association = association;
  const auto make_policy =
      [&](std::uint64_t kind) -> std::unique_ptr<RoutingPolicy> {
    switch (kind % 3) {
      case 0:
        return std::make_unique<AssociationRoutingPolicy>(association);
      case 1:
        return std::make_unique<InterestShortcutsPolicy>();
      default:
        return std::make_unique<HybridShortcutsAssociationPolicy>(hybrid);
    }
  };
  // Departures whose id sat in the shortcut list of a peer that was not its
  // neighbour: the purge must reach beyond the former neighbours.
  std::size_t distant_shortcuts = 0;
  for (const std::uint64_t seed : {31u, 32u, 33u}) {
    SCOPED_TRACE(seed);
    util::Rng topo(seed);
    Engine net(small_config(seed), make_barabasi_albert(150, 3, topo),
               [&](NodeId node) { return make_policy(node); });
    util::Rng driver(seed + 7);
    for (int swap = 0; swap < 30; ++swap) {
      const auto node = static_cast<NodeId>(driver.below(net.num_nodes()));
      net.set_policy(node, make_policy(driver.below(3)));
    }
    SearchOptions options;
    options.ttl = 4;
    sim::run_queries(net, 200, options, driver, nullptr);
    EXPECT_GT(sim::adapt_topology(net, 2).edges_added, 0u);
    for (int step = 0; step < 40; ++step) {
      sim::run_queries(net, 10, options, driver, nullptr);
      const auto departed =
          static_cast<NodeId>(driver.below(net.num_nodes()));
      for (NodeId peer = 0; peer < net.num_nodes(); ++peer) {
        const Learned state = learned(net.policy(peer));
        if (peer != departed && !net.graph().has_edge(peer, departed) &&
            state.shortcuts != nullptr &&
            std::find(state.shortcuts->begin(), state.shortcuts->end(),
                      departed) != state.shortcuts->end()) {
          ++distant_shortcuts;
        }
      }
      net.replace_peer(departed, 3);
      for (NodeId peer = 0; peer < net.num_nodes(); ++peer) {
        const Learned state = learned(net.policy(peer));
        if (state.rules != nullptr) {
          EXPECT_FALSE(rules_name(*state.rules, departed))
              << "peer " << peer << " departed " << departed;
        }
        if (state.shortcuts != nullptr) {
          EXPECT_EQ(std::count(state.shortcuts->begin(),
                               state.shortcuts->end(), departed),
                    0)
              << "peer " << peer << " departed " << departed;
        }
      }
    }
  }
  EXPECT_GT(distant_shortcuts, 0u);
}

}  // namespace
}  // namespace aar::overlay
