// Search semantics of the overlay simulator on hand-built topologies: TTL
// scope, hop and message counts, duplicate suppression, expanding rings,
// interest-driven targets, policy swaps, and reply-path learning.  Every
// search runs at one and at four threads and must come out byte-identical.

#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include "overlay/fault_experiment.hpp"

namespace aar::overlay {
namespace {

using sim::Engine;
using sim::EngineConfig;

constexpr std::size_t kThreads[] = {1, 4};

/// Line topology 0 - 1 - 2 - ... - (n-1).
Graph line_graph(std::size_t n) {
  Graph g(n);
  for (NodeId i = 0; i + 1 < n; ++i) g.add_edge(i, i + 1);
  return g;
}

PolicyFactory flooding_factory() {
  return [](NodeId) { return std::make_unique<FloodingPolicy>(); };
}

EngineConfig tiny_config(std::size_t threads = 1) {
  EngineConfig config;
  config.seed = 3;
  config.files_per_node = 4;
  config.content.files = 200;
  config.content.categories = 8;
  config.threads = threads;
  return config;
}

/// A file no store contains.
workload::FileId unowned_file(const Engine& engine) {
  for (workload::FileId f = engine.catalogue().size(); f-- > 0;) {
    if (engine.holders(f).empty()) return f;
  }
  return workload::kNoFile;
}

/// Search from `origin` on fresh flooding engines over `graph` at every
/// thread count; the outcomes must be byte-identical.
SearchOutcome search_flooding(const Graph& graph, NodeId origin,
                              workload::FileId target,
                              const SearchOptions& options) {
  SearchOutcome outcome;
  std::vector<std::uint8_t> first;
  for (const std::size_t threads : kThreads) {
    Engine net(tiny_config(threads), graph, flooding_factory());
    outcome = net.search(origin, target, options);
    std::vector<std::uint8_t> bytes;
    append_outcome(bytes, outcome);
    if (first.empty()) first = bytes;
    EXPECT_EQ(bytes, first) << "threads " << threads;
  }
  return outcome;
}

TEST(Network, FloodReachesWholeLineWithinTtl) {
  const Engine net(tiny_config(), line_graph(6), flooding_factory());
  const workload::FileId missing = unowned_file(net);
  ASSERT_NE(missing, workload::kNoFile);
  const SearchOutcome out =
      search_flooding(line_graph(6), 0, missing, {.ttl = 5});
  EXPECT_FALSE(out.hit);
  EXPECT_EQ(out.nodes_reached, 6u);
  EXPECT_EQ(out.query_messages, 5u);  // one per hop down the line
}

TEST(Network, TtlLimitsScope) {
  const Engine net(tiny_config(), line_graph(6), flooding_factory());
  const SearchOutcome out =
      search_flooding(line_graph(6), 0, unowned_file(net), {.ttl = 2});
  EXPECT_EQ(out.nodes_reached, 3u);  // origin + 2 hops
  EXPECT_EQ(out.query_messages, 2u);
}

TEST(Network, FindsPlantedFileAndCountsHops) {
  const Engine net(tiny_config(), line_graph(5), flooding_factory());
  ASSERT_FALSE(net.store(3).empty());
  // Search for a file node 3 holds; if a closer node has it too, hops just
  // come out lower, so only assert the hit and the hop bound.
  const SearchOutcome out =
      search_flooding(line_graph(5), 0, net.store(3).front(), {.ttl = 5});
  EXPECT_TRUE(out.hit);
  EXPECT_LE(out.hops_to_first_hit, 3u);
  EXPECT_GE(out.replicas_found, 1u);
}

TEST(Network, OriginOwningFileIsZeroHopHit) {
  const Engine net(tiny_config(), line_graph(4), flooding_factory());
  ASSERT_FALSE(net.store(2).empty());
  const SearchOutcome out =
      search_flooding(line_graph(4), 2, net.store(2).front(), {.ttl = 3});
  EXPECT_TRUE(out.hit);
  EXPECT_EQ(out.hops_to_first_hit, 0u);
}

TEST(Network, ReplyMessagesMatchPathLength) {
  // Star: center 0, leaves 1..4.  A hit at a leaf is 1 hop; reply = 1 msg.
  Graph star(5);
  for (NodeId leaf = 1; leaf < 5; ++leaf) star.add_edge(0, leaf);
  const Engine net(tiny_config(), star, flooding_factory());
  workload::FileId owned = workload::kNoFile;
  for (const workload::FileId f : net.store(3)) {
    if (net.holders(f).size() == 1) {
      owned = f;
      break;
    }
  }
  ASSERT_NE(owned, workload::kNoFile);
  const SearchOutcome out = search_flooding(star, 0, owned, {.ttl = 2});
  EXPECT_TRUE(out.hit);
  EXPECT_EQ(out.hops_to_first_hit, 1u);
  EXPECT_EQ(out.reply_messages, 1u);
  EXPECT_EQ(out.query_messages, 4u);  // flood to 4 leaves
}

TEST(Network, DuplicateSuppressionOnACycle) {
  // Triangle: flooding from 0 sends 2 messages out, then 1<->2 exchange two
  // duplicates that are dropped; total query messages = 2 + 2 = 4 (TTL 3).
  Graph triangle(3);
  triangle.add_edge(0, 1);
  triangle.add_edge(1, 2);
  triangle.add_edge(0, 2);
  const Engine net(tiny_config(), triangle, flooding_factory());
  const SearchOutcome out =
      search_flooding(triangle, 0, unowned_file(net), {.ttl = 3});
  EXPECT_EQ(out.nodes_reached, 3u);
  EXPECT_EQ(out.query_messages, 4u);
}

TEST(Network, ExpandingRingStopsEarlyOnNearbyContent) {
  const Engine net(tiny_config(), line_graph(8), flooding_factory());
  ASSERT_FALSE(net.store(1).empty());
  const SearchOutcome ring =
      search_flooding(line_graph(8), 0, net.store(1).front(),
                      {.ttl = 7, .mode = SearchMode::kExpandingRing});
  EXPECT_TRUE(ring.hit);
  // TTL-1 ring suffices: exactly 1 query message if node 1 holds it, or a
  // couple more if retried; in all cases well below a TTL-7 line flood.
  EXPECT_LE(ring.query_messages, 4u);
}

TEST(Network, ExpandingRingEventuallyUsesFullTtl) {
  const Engine net(tiny_config(), line_graph(8), flooding_factory());
  const SearchOutcome ring =
      search_flooding(line_graph(8), 0, unowned_file(net),
                      {.ttl = 7, .mode = SearchMode::kExpandingRing});
  EXPECT_FALSE(ring.hit);
  // Rings 1, 2, 4, 7 on a line: 1 + 2 + 4 + 7 = 14 query messages.
  EXPECT_EQ(ring.query_messages, 14u);
}

TEST(Network, SampleTargetRespectsInterests) {
  EngineConfig config = tiny_config();
  config.content.files = 5'000;
  config.content.categories = 64;
  Engine net(config, line_graph(10), flooding_factory());
  for (NodeId n = 0; n < 10; ++n) {
    const auto& cats = net.profile(n).categories();
    for (int i = 0; i < 20; ++i) {
      const workload::FileId target = net.sample_target(n);
      const workload::Category cat = net.catalogue().category_of(target);
      EXPECT_NE(std::find(cats.begin(), cats.end(), cat), cats.end());
    }
  }
}

TEST(Network, SetPolicySwapsBehaviour) {
  Engine net(tiny_config(), line_graph(4), flooding_factory());
  net.set_policy(0, std::make_unique<KRandomWalkPolicy>(1));
  EXPECT_EQ(net.policy(0).name(), "k-random-walk(1)");
  EXPECT_EQ(net.policy(1).name(), "flooding");
  EXPECT_THROW(net.set_policy(1, nullptr), std::invalid_argument);
  EXPECT_THROW(net.set_policy(0, nullptr), std::invalid_argument);
  // The refused calls left both policies in place.
  EXPECT_EQ(net.policy(0).name(), "k-random-walk(1)");
  EXPECT_EQ(net.policy(1).name(), "flooding");
  EXPECT_GT(net.search(0, net.sample_target(0)).nodes_reached, 0u);

  EXPECT_THROW(Engine(tiny_config(), line_graph(4),
                      [](NodeId node) -> std::unique_ptr<RoutingPolicy> {
                        if (node == 2) return nullptr;
                        return std::make_unique<FloodingPolicy>();
                      }),
               std::invalid_argument);
}

// Learning hook plumbing: a recording policy observes reply paths.
class RecordingPolicy final : public RoutingPolicy {
 public:
  struct Observation {
    NodeId self, upstream, downstream;
  };
  static std::vector<Observation>& log() {
    static std::vector<Observation> observations;
    return observations;
  }
  [[nodiscard]] std::string name() const override { return "recording"; }
  bool route(const Query&, NodeId, NodeId from,
             std::span<const NodeId> neighbors, util::Rng&,
             std::vector<NodeId>& out) override {
    for (NodeId n : neighbors) {
      if (n != from) out.push_back(n);
    }
    return false;
  }
  void on_reply_path(const Query&, NodeId self, NodeId upstream,
                     NodeId downstream) override {
    log().push_back({self, upstream, downstream});
  }
};

TEST(Network, ReplyPathTeachesEveryIntermediateNode) {
  for (const std::size_t threads : kThreads) {
    SCOPED_TRACE(threads);
    RecordingPolicy::log().clear();
    Engine net(tiny_config(threads), line_graph(5),
               [](NodeId) { return std::make_unique<RecordingPolicy>(); });
    // Find a file held by node 4 and nobody closer to 0.
    workload::FileId target = workload::kNoFile;
    for (const workload::FileId f : net.store(4)) {
      bool closer = false;
      for (NodeId n = 0; n < 4; ++n) closer |= net.store_has(n, f);
      if (!closer) {
        target = f;
        break;
      }
    }
    ASSERT_NE(target, workload::kNoFile);
    const SearchOutcome out = net.search(0, target, {.ttl = 6});
    ASSERT_TRUE(out.hit);
    EXPECT_EQ(out.hops_to_first_hit, 4u);
    // Reply path 4 -> 3 -> 2 -> 1 -> 0 teaches nodes 3, 2, 1 and origin 0.
    ASSERT_EQ(RecordingPolicy::log().size(), 4u);
    const auto& obs = RecordingPolicy::log();
    // Node 3 learned {2} -> {4}: queries from 2 should go to 4.
    EXPECT_EQ(obs[0].self, 3u);
    EXPECT_EQ(obs[0].upstream, 2u);
    EXPECT_EQ(obs[0].downstream, 4u);
    // Origin learns {self} -> {1}.
    EXPECT_EQ(obs[3].self, 0u);
    EXPECT_EQ(obs[3].upstream, 0u);
    EXPECT_EQ(obs[3].downstream, 1u);
  }
}

}  // namespace
}  // namespace aar::overlay
