// Differential determinism suite for the discrete-event engine
// (docs/SIMULATION.md): on small topologies aar::sim::Engine must reproduce
// the reference simulator's pinned digests — SearchOutcome byte streams,
// overlay.* counter values, and per-node RuleSet bytes — and must itself be
// byte-identical across thread counts {1, 2, 8} and across shard counts,
// timer-free aar.metrics.v1 snapshots and faulted scenarios included.

#include "sim/experiment.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/registry.hpp"
#include "overlay/assoc_policy.hpp"
#include "overlay/fault_experiment.hpp"
#include "sim/engine.hpp"

namespace aar::sim {
namespace {

constexpr std::uint64_t kSeed = 11;

fault::Scenario base_scenario(const std::string& policy) {
  fault::Scenario scenario;
  scenario.nodes = 300;
  scenario.attach = 3;
  scenario.warmup = 350;
  scenario.queries = 220;
  scenario.epochs = 2;
  scenario.churn = 20;
  scenario.policy = policy;
  scenario.ttl = 5;
  return scenario;
}

fault::Scenario faulted_scenario(const std::string& policy) {
  // Exercises every order-sensitive path at once: drops, duplicates,
  // delays (out-of-FIFO arrival order), slow/crashed/free-riding peers, a
  // mid-run partition, and the retry ladder with jittered backoff.
  fault::Scenario scenario = base_scenario(policy);
  scenario.timeout = 60;
  scenario.retries = 2;
  scenario.backoff = 2;
  scenario.jitter = 2;
  scenario.plan.drop = 0.05;
  scenario.plan.duplicate = 0.02;
  scenario.plan.max_delay = 2;
  scenario.plan.peers.push_back({5, fault::PeerState::crashed});
  scenario.plan.peers.push_back({17, fault::PeerState::slow});
  scenario.plan.peers.push_back({40, fault::PeerState::free_riding});
  fault::FaultEvent crash;
  crash.at = 450;
  crash.kind = fault::FaultEvent::Kind::crash;
  crash.node = 9;
  scenario.schedule.add(crash);
  fault::FaultEvent partition;
  partition.at = 520;
  partition.kind = fault::FaultEvent::Kind::partition;
  partition.pivot = 150;
  scenario.schedule.add(partition);
  fault::FaultEvent heal;
  heal.at = 610;
  heal.kind = fault::FaultEvent::Kind::heal_partition;
  scenario.schedule.add(heal);
  return scenario;
}

struct Capture {
  overlay::FaultRunResult result;
  std::string metrics;
  std::uint64_t counters = 0;  ///< FNV-1a over the overlay.* counter values
};

/// FNV-1a over the values of the overlay.* counters, in a fixed order.
std::uint64_t overlay_counters_digest() {
  static constexpr const char* kCounters[] = {
      "overlay.searches",         "overlay.hits",
      "overlay.query_messages",   "overlay.reply_messages",
      "overlay.probe_messages",   "overlay.flood_fallbacks",
      "overlay.rule_routed",      "overlay.retry.attempts",
      "overlay.retry.timeouts",   "overlay.retry.degraded_floods",
      "overlay.retry.backoff_stamps"};
  std::vector<std::uint8_t> bytes;
  for (const char* name : kCounters) {
    const std::uint64_t value = obs::Registry::global().counter(name).value();
    for (int shift = 0; shift < 64; shift += 8) {
      bytes.push_back(static_cast<std::uint8_t>(value >> shift));
    }
  }
  return overlay::fnv1a(bytes);
}

Capture capture(const fault::Scenario& scenario, bool faulted,
                std::size_t threads, std::size_t shards = 0) {
  obs::Registry::global().reset();
  Capture capture;
  EngineRunOptions options;
  options.threads = threads;
  options.shards = shards;
  capture.result = run_fault_scenario(scenario, kSeed, faulted, options);
  std::ostringstream json;
  obs::Registry::global().write_json(json, {}, /*include_timers=*/false);
  capture.metrics = json.str();
  capture.counters = overlay_counters_digest();
  return capture;
}

struct PolicyCase {
  const char* policy;
  bool faulted;
  std::uint64_t outcome_hash;     ///< pinned reference outcome digest
  std::uint64_t counters_digest;  ///< pinned reference overlay.* counters
};

// Prints the policy name rather than the literal's address, so the
// discovered test names are the same on every build.
void PrintTo(const PolicyCase& c, std::ostream* os) {
  *os << c.policy << (c.faulted ? ", faulted" : ", lossless");
}

class SimDifferential : public ::testing::TestWithParam<PolicyCase> {};

TEST_P(SimDifferential, EngineMatchesLegacyForAllThreadCounts) {
  const auto [policy, faulted, outcome_hash, counters_digest] = GetParam();
  const fault::Scenario scenario =
      faulted ? faulted_scenario(policy) : base_scenario(policy);
  const Capture serial = capture(scenario, faulted, 1);
  ASSERT_FALSE(serial.result.outcome_bytes.empty());
  EXPECT_EQ(serial.result.outcome_hash, outcome_hash);
#ifndef AAR_OBS_OFF
  EXPECT_EQ(serial.counters, counters_digest);
#endif

  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    const Capture parallel = capture(scenario, faulted, threads);
    EXPECT_EQ(parallel.result.outcome_bytes, serial.result.outcome_bytes)
        << policy << " threads=" << threads;
    ASSERT_EQ(parallel.result.epochs.size(), serial.result.epochs.size());
    for (std::size_t e = 0; e < serial.result.epochs.size(); ++e) {
      EXPECT_EQ(parallel.result.epochs[e].messages,
                serial.result.epochs[e].messages);
      EXPECT_EQ(parallel.result.epochs[e].dropped,
                serial.result.epochs[e].dropped);
      EXPECT_EQ(parallel.result.epochs[e].nodes_reached,
                serial.result.epochs[e].nodes_reached);
    }
    EXPECT_EQ(parallel.metrics, serial.metrics)
        << policy << " threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, SimDifferential,
    ::testing::Values(PolicyCase{"association", false, 0x26c1581f33f86df0ULL,
                                 0xfcba9e5413d04bedULL},
                      PolicyCase{"association", true, 0xca4e7fe282e49b34ULL,
                                 0x6e23d08af891510eULL},
                      PolicyCase{"flooding", false, 0x4c7dde81f74fc98cULL,
                                 0x32a18b4b38852e3eULL},
                      PolicyCase{"flooding", true, 0xb0ca24384a83c1abULL,
                                 0xf65ca2e4f0034ab4ULL}));

TEST(SimDifferentialShards, ShardCountNeverChangesOutcomes) {
  const fault::Scenario scenario = faulted_scenario("association");
  const Capture base = capture(scenario, /*faulted=*/true, 1, 1);
  for (const std::size_t shards : {std::size_t{3}, std::size_t{8},
                                   std::size_t{64}}) {
    const Capture other = capture(scenario, true, 2, shards);
    EXPECT_EQ(other.result.outcome_bytes, base.result.outcome_bytes)
        << "shards=" << shards;
    EXPECT_EQ(other.metrics, base.metrics) << "shards=" << shards;
  }
}

TEST(SimDifferentialShards, EngineMetricsFamilyIsThreadInvariant) {
  const fault::Scenario scenario = base_scenario("association");
  obs::Registry::global().reset();
  EngineRunOptions options;
  options.engine_metrics = true;
  options.threads = 1;
  (void)run_fault_scenario(scenario, kSeed, false, options);
  std::ostringstream first;
  obs::Registry::global().write_json(first, {}, false);

  obs::Registry::global().reset();
  options.threads = 8;
  (void)run_fault_scenario(scenario, kSeed, false, options);
  std::ostringstream second;
  obs::Registry::global().write_json(second, {}, false);
  EXPECT_EQ(first.str(), second.str());
  EXPECT_NE(first.str().find("sim.engine.searches"), std::string::npos);
}

// RuleSet bytes: after the warm-up workload, every node's mined rule set —
// the deterministic CSV from RuleSet::save — must match the pinned
// reference and be the same for serial and parallel engine runs.
TEST(SimDifferentialRules, RuleSetBytesMatchLegacy) {
  const fault::Scenario scenario = base_scenario("association");
  ExperimentConfig config;
  config.seed = kSeed;
  config.nodes = scenario.nodes;
  config.attach = scenario.attach;
  config.engine.engine_metrics = false;
  overlay::SearchOptions options;
  options.ttl = scenario.ttl;

  const auto rules = [](Engine& engine, overlay::NodeId node) {
    auto& policy =
        dynamic_cast<overlay::AssociationRoutingPolicy&>(engine.policy(node));
    std::ostringstream bytes;
    policy.rules().save(bytes);
    return bytes.str();
  };

  std::vector<std::string> serial;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    config.engine.threads = threads;
    Engine engine = make_network(
        config, overlay::scenario_policy_factory(scenario.policy));
    util::Rng driver(kSeed + 2);
    run_queries(engine, scenario.warmup, options, driver, nullptr);
    std::vector<std::string> per_node;
    for (overlay::NodeId node = 0; node < engine.num_nodes(); ++node) {
      per_node.push_back(rules(engine, node));
    }
    if (serial.empty()) serial = per_node;
    EXPECT_EQ(per_node, serial) << "threads " << threads;
  }
  std::string all_rules;
  for (const std::string& node_rules : serial) all_rules += node_rules;
  EXPECT_FALSE(all_rules.empty());
  EXPECT_EQ(overlay::fnv1a({all_rules.begin(), all_rules.end()}),
            0x6bbb62c6bc8a6125ULL);
}

}  // namespace
}  // namespace aar::sim
