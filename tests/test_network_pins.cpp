// Pinned digests of overlay runs that exercise every search path: k-random
// walks, a mixed walk/association/flood network under faults and retries,
// expanding rings, and one round of rule-driven topology adaptation.  Each
// digest is FNV-1a over the canonical SearchOutcome encoding
// (docs/FAULTS.md) of every search in the run, so a changed constant is a
// behaviour change of the simulator, never noise.  The digests were taken
// from the reference simulator the engine replaced (the faulted run's was
// re-recorded once when a forward's fault verdict became a hash of its
// key); every run here checks them at one and at four threads.

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "fault/fault.hpp"
#include "overlay/assoc_policy.hpp"
#include "overlay/fault_experiment.hpp"
#include "sim/experiment.hpp"

namespace aar::sim {
namespace {

using overlay::AssociationRoutingPolicy;
using overlay::FloodingPolicy;
using overlay::KRandomWalkPolicy;
using overlay::SearchOptions;

constexpr std::size_t kThreads[] = {1, 4};

ExperimentConfig pin_config(std::uint64_t seed, std::size_t nodes,
                            std::size_t threads) {
  ExperimentConfig config;
  config.seed = seed;
  config.nodes = nodes;
  config.attach = 3;
  config.engine.files_per_node = 12;
  config.engine.content.files = 2'000;
  config.engine.content.categories = 24;
  config.engine.threads = threads;
  return config;
}

/// FNV-1a over the outcomes of `count` run_queries-style searches.
std::uint64_t drive(Engine& net, std::size_t count,
                    const SearchOptions& options, util::Rng& driver) {
  std::vector<std::uint8_t> bytes;
  for (std::size_t i = 0; i < count; ++i) {
    overlay::append_outcome(bytes, issue_query(net, options, driver));
  }
  return overlay::fnv1a(bytes);
}

TEST(NetworkPins, KRandomWalkExperiment) {
  for (const std::size_t threads : kThreads) {
    ExperimentConfig config = pin_config(11, 200, threads);
    config.options.ttl = 64;
    Engine net = make_network(config, [](NodeId) {
      return std::make_unique<KRandomWalkPolicy>(8);
    });
    util::Rng driver(config.seed + 2);
    EXPECT_EQ(drive(net, 400, config.options, driver), 0x3cee0ae2494fbd4eULL)
        << "threads " << threads;
  }
}

TEST(NetworkPins, MixedWalkFloodNetworkUnderFaults) {
  for (const std::size_t threads : kThreads) {
    Engine net = make_network(pin_config(13, 150, threads), [](NodeId) {
      return std::make_unique<FloodingPolicy>();
    });
    for (NodeId node = 0; node < net.num_nodes(); ++node) {
      if (node % 4 == 0) {
        net.set_policy(node, std::make_unique<KRandomWalkPolicy>(2));
      } else if (node % 4 == 1) {
        net.set_policy(node, std::make_unique<AssociationRoutingPolicy>());
      }
    }
    fault::FaultPlan plan;
    plan.drop = 0.05;
    plan.duplicate = 0.03;
    plan.max_delay = 2;
    plan.peers.push_back({7, fault::PeerState::free_riding});
    net.install_faults(std::make_unique<fault::FaultInjector>(
        plan, fault::FaultSchedule{}, 13, net.num_nodes()));
    SearchOptions options;
    options.ttl = 6;
    options.timeout_stamps = 30;
    options.max_retries = 2;
    options.backoff_jitter = 1;
    util::Rng driver(15);
    EXPECT_EQ(drive(net, 400, options, driver), 0x5b983dcaad9f2c85ULL)
        << "threads " << threads;
  }
}

TEST(NetworkPins, ExpandingRing) {
  for (const std::size_t threads : kThreads) {
    ExperimentConfig config = pin_config(17, 300, threads);
    config.options.mode = overlay::SearchMode::kExpandingRing;
    Engine net = make_network(
        config, [](NodeId) { return std::make_unique<FloodingPolicy>(); });
    util::Rng driver(config.seed + 2);
    EXPECT_EQ(drive(net, 300, config.options, driver), 0x12549ba230292c25ULL)
        << "threads " << threads;
  }
}

TEST(NetworkPins, AdaptTopologyLinksAndFollowUp) {
  for (const std::size_t threads : kThreads) {
    SCOPED_TRACE(threads);
    const ExperimentConfig config = pin_config(19, 300, threads);
    Engine net = make_network(config, [](NodeId) {
      return std::make_unique<AssociationRoutingPolicy>();
    });
    util::Rng driver(config.seed + 2);
    EXPECT_EQ(drive(net, 600, config.options, driver), 0x169d1afa6b3e9558ULL);
    const overlay::Graph before = net.graph();

    const AdaptationReport report = adapt_topology(net, 2);
    std::vector<std::uint8_t> links;
    for (NodeId x = 0; x < net.num_nodes(); ++x) {
      for (const NodeId z : net.graph().neighbors(x)) {
        if (x < z && !before.has_edge(x, z)) {
          links.push_back(static_cast<std::uint8_t>(x));
          links.push_back(static_cast<std::uint8_t>(x >> 8));
          links.push_back(static_cast<std::uint8_t>(z));
          links.push_back(static_cast<std::uint8_t>(z >> 8));
        }
      }
    }
    EXPECT_EQ(links.size(), 4 * report.edges_added);
    EXPECT_EQ(report.adopters, 300u);
    EXPECT_EQ(report.edges_added, 66u);
    EXPECT_EQ(report.already_linked, 0u);
    EXPECT_EQ(overlay::fnv1a(links), 0x85446ff988e3f36fULL);

    EXPECT_EQ(drive(net, 300, config.options, driver), 0xf5f54bc7218d29bfULL);
  }
}

}  // namespace
}  // namespace aar::sim
