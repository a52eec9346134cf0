// Unit tests for the sharded discrete-event engine itself: construction
// invariants, schedule compilation, sharded-build determinism across
// thread/shard counts, churn's store rows and holder index, node-id
// bounds, the scale driver, and the pinned digests of faulted runs.

#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <set>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault.hpp"
#include "obs/registry.hpp"
#include "overlay/assoc_policy.hpp"
#include "overlay/fault_experiment.hpp"
#include "overlay/policy.hpp"
#include "overlay/topology.hpp"
#include "sim/scale.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace aar::sim {
namespace {

overlay::Graph small_graph(std::uint64_t seed, std::size_t nodes = 120,
                           std::size_t attach = 3) {
  util::Rng topo(seed);
  return overlay::make_barabasi_albert(nodes, attach, topo);
}

overlay::PolicyFactory flooding_factory() {
  return [](overlay::NodeId) {
    return std::make_unique<overlay::FloodingPolicy>();
  };
}

TEST(SimEngine, ShardAndThreadResolutionClampsToPopulation) {
  EngineConfig config;
  config.threads = 64;
  config.shards = 4096;
  Engine engine(config, small_graph(5, 40, 2), flooding_factory());
  EXPECT_LE(engine.shards(), 40u);
  EXPECT_LE(engine.threads(), 40u);
  EXPECT_GE(engine.shards(), 1u);
  EXPECT_GE(engine.threads(), 1u);
}

TEST(SimEngine, LegacyBuildMatchesShardedPopulationShape) {
  EngineConfig legacy;
  legacy.build = EngineConfig::Build::kLegacy;
  Engine a(legacy, small_graph(9), flooding_factory());

  EngineConfig sharded = legacy;
  sharded.build = EngineConfig::Build::kSharded;
  Engine b(sharded, small_graph(9), flooding_factory());

  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  for (overlay::NodeId node = 0; node < a.num_nodes(); ++node) {
    EXPECT_GT(a.store_size(node), 0u);
    EXPECT_GT(b.store_size(node), 0u);
  }
}

TEST(SimEngine, ShardedBuildIsThreadAndShardInvariant) {
  // The kSharded construction path derives every peer's store from a
  // per-peer split seed, so the resulting population must not depend on
  // how the build work was distributed.
  const auto fingerprint = [](std::size_t threads, std::size_t shards) {
    EngineConfig config;
    config.build = EngineConfig::Build::kSharded;
    config.threads = threads;
    config.shards = shards;
    config.engine_metrics = false;
    Engine engine(config, small_graph(21), flooding_factory());
    std::uint64_t hash = 14695981039346656037ULL;
    const auto mix = [&hash](std::uint64_t v) {
      hash = (hash ^ v) * 1099511628211ULL;
    };
    for (overlay::NodeId node = 0; node < engine.num_nodes(); ++node) {
      mix(engine.store_size(node));
      mix(engine.sample_target(node));
    }
    return hash;
  };
  const std::uint64_t base = fingerprint(1, 1);
  EXPECT_EQ(fingerprint(2, 8), base);
  EXPECT_EQ(fingerprint(8, 3), base);
}

TEST(SimEngine, ChurnRebuildsStoresThroughOverlay) {
  EngineConfig config;
  Engine engine(config, small_graph(13), flooding_factory());
  const overlay::NodeId victim = 7;
  const std::size_t before = engine.store_size(victim);
  ASSERT_GT(before, 0u);

  engine.replace_peer(victim, 3);
  // The replacement peer draws a fresh profile and store, which overwrites
  // its store row and must be fully visible through the public accessors.
  const std::size_t after = engine.store_size(victim);
  EXPECT_GT(after, 0u);
  std::set<workload::FileId> seen;
  for (int i = 0; i < 64; ++i) {
    const workload::FileId file = engine.sample_target(victim);
    if (engine.store_has(victim, file)) seen.insert(file);
  }
  // Searches still complete through the churned peer.
  overlay::SearchOptions options;
  options.ttl = 4;
  const auto outcome = engine.search(victim, engine.sample_target(victim),
                                     options);
  EXPECT_GT(outcome.nodes_reached, 0u);
}

TEST(SimEngine, RoutingAdjacencyFollowsEveryGraphChange) {
  // Routing reads a flat snapshot of the graph.  After each kind of change
  // — one replacement, a churn epoch, an added link — and a search between
  // them, every peer's routing row must equal Graph::neighbors: a change
  // that skipped the rebuild would route over links that no longer exist.
  EngineConfig config;
  config.build = EngineConfig::Build::kSharded;
  config.engine_metrics = false;
  Engine engine(config, small_graph(23, 200), flooding_factory());
  overlay::SearchOptions options;
  options.ttl = 3;
  const auto rows_match = [&engine] {
    for (overlay::NodeId node = 0; node < engine.num_nodes(); ++node) {
      const std::span<const overlay::NodeId> flat =
          engine.routing_neighbors(node);
      const std::span<const overlay::NodeId> live =
          engine.graph().neighbors(node);
      if (!std::equal(flat.begin(), flat.end(), live.begin(), live.end())) {
        ADD_FAILURE() << "peer " << node << "'s routing row is stale";
        return false;
      }
    }
    return true;
  };
  const auto search_once = [&engine, &options] {
    (void)engine.search(5, engine.sample_target(5), options);
  };
  search_once();
  ASSERT_TRUE(rows_match());
  engine.replace_peer(3, 3);
  EXPECT_TRUE(rows_match());
  search_once();
  engine.churn(6, 3);
  EXPECT_TRUE(rows_match());
  search_once();
  overlay::NodeId a = 0;
  overlay::NodeId b = 1;
  while (engine.graph().has_edge(a, b)) ++b;
  ASSERT_TRUE(engine.add_link(a, b));
  EXPECT_TRUE(rows_match());
  search_once();
  EXPECT_FALSE(engine.add_link(a, b));  // no change, nothing to rebuild
  EXPECT_TRUE(rows_match());
}

TEST(SimEngine, HolderIndexMatchesStoresAfterChurn) {
  EngineConfig config;
  config.build = EngineConfig::Build::kSharded;
  config.engine_metrics = false;
  Engine engine(config, small_graph(17, 300), flooding_factory());
  util::Rng picker(99);
  for (int i = 0; i < 200; ++i) {
    engine.replace_peer(static_cast<overlay::NodeId>(picker.below(300)), 3);
  }

  // Every file's holder list is exactly the set of peers whose store has
  // it, without duplicates.
  std::size_t listed = 0;
  for (workload::FileId file = 0; file < engine.catalogue().size(); ++file) {
    const auto holders = engine.holders(file);
    const std::set<overlay::NodeId> unique(holders.begin(), holders.end());
    EXPECT_EQ(unique.size(), holders.size()) << "file " << file;
    for (const overlay::NodeId node : holders) {
      EXPECT_TRUE(engine.store_has(node, file)) << "file " << file;
    }
    listed += holders.size();
  }
  std::size_t stored = 0;
  for (overlay::NodeId node = 0; node < engine.num_nodes(); ++node) {
    stored += engine.store_size(node);
  }
  EXPECT_EQ(listed, stored);

  // The search's hit check reads the holder marks: a lossless flood that
  // reaches every peer finds exactly the replicas a brute-force store scan
  // counts, churned peers included.
  overlay::SearchOptions options;
  options.ttl = 12;
  int checked = 0;
  for (int sample = 0; sample < 40; ++sample) {
    const auto origin = static_cast<overlay::NodeId>(picker.below(300));
    const workload::FileId target = engine.sample_target(origin);
    std::uint32_t replicas = 0;
    for (overlay::NodeId node = 0; node < engine.num_nodes(); ++node) {
      if (engine.store_has(node, target)) ++replicas;
    }
    const overlay::SearchOutcome outcome =
        engine.search(origin, target, options);
    if (outcome.nodes_reached != engine.num_nodes()) continue;
    ++checked;
    EXPECT_EQ(outcome.replicas_found, replicas)
        << "origin " << origin << " target " << target;
  }
  EXPECT_GT(checked, 20);
}

TEST(SimEngine, OutOfRangeNodeIdsThrow) {
  EngineConfig config;
  Engine engine(config, small_graph(13), flooding_factory());
  const auto past_end = static_cast<overlay::NodeId>(engine.num_nodes());
  for (const overlay::NodeId bad : {past_end, overlay::kNoNode}) {
    EXPECT_THROW((void)engine.search(bad, 0), std::out_of_range);
    EXPECT_THROW(engine.replace_peer(bad, 3), std::out_of_range);
    EXPECT_THROW((void)engine.store_has(bad, 0), std::out_of_range);
    EXPECT_THROW((void)engine.store_size(bad), std::out_of_range);
    EXPECT_THROW((void)engine.sample_target(bad), std::out_of_range);
  }
  // A refused call changes nothing: the engine keeps working.
  const overlay::SearchOutcome outcome =
      engine.search(0, engine.sample_target(0));
  EXPECT_GT(outcome.nodes_reached, 0u);
}

TEST(SimScale, CompileScheduleInterleavesChurnBetweenEpochs) {
  ScaleConfig config;
  config.epochs = 3;
  config.searches = 4;
  config.churn = 2;
  const std::vector<SimEvent> schedule = compile_schedule(config);
  ASSERT_EQ(schedule.size(), 3 * 4 + 2);
  std::size_t searches = 0, churns = 0;
  for (const SimEvent& event : schedule) {
    if (event.kind == SimEventKind::kSearch) {
      ++searches;
    } else {
      ++churns;
      EXPECT_EQ(event.count, 2u);
    }
  }
  EXPECT_EQ(searches, 12u);
  EXPECT_EQ(churns, 2u);
  // Churn never trails the final epoch.
  EXPECT_EQ(schedule.back().kind, SimEventKind::kSearch);
}

TEST(SimScale, CompileScheduleOmitsChurnWhenDisabled) {
  ScaleConfig config;
  config.epochs = 2;
  config.searches = 3;
  config.churn = 0;
  const std::vector<SimEvent> schedule = compile_schedule(config);
  ASSERT_EQ(schedule.size(), 6u);
  for (const SimEvent& event : schedule) {
    EXPECT_EQ(event.kind, SimEventKind::kSearch);
  }
}

TEST(SimScale, RunScaleIsDeterministicAcrossThreadsWithFaults) {
  ScaleConfig config;
  config.nodes = 600;
  config.warmup = 40;
  config.searches = 60;
  config.epochs = 2;
  config.churn = 5;
  config.ttl = 4;
  config.drop = 0.05;
  config.crashed = 6;
  config.engine_metrics = false;
  config.record_outcomes = true;

  config.threads = 1;
  const ScaleResult serial = run_scale(config);
  config.threads = 4;
  config.shards = 16;
  const ScaleResult parallel = run_scale(config);

  EXPECT_EQ(serial.outcome_hash, parallel.outcome_hash);
  EXPECT_EQ(serial.outcome_bytes, parallel.outcome_bytes);
  EXPECT_EQ(serial.searches, parallel.searches);
  EXPECT_EQ(serial.hits, parallel.hits);
  EXPECT_EQ(serial.query_messages, parallel.query_messages);
  EXPECT_EQ(serial.dropped, parallel.dropped);
  EXPECT_EQ(serial.churned, parallel.churned);

  EXPECT_EQ(serial.searches, 120u);
  EXPECT_EQ(serial.churned, 5u);
  EXPECT_GT(serial.dropped, 0u);
  EXPECT_GT(serial.peers_per_second(), 0.0);
  EXPECT_GT(serial.searches_per_second(), 0.0);
  // record_outcomes keeps the byte stream for differential checks.
  EXPECT_FALSE(serial.outcome_bytes.empty());

  config.record_outcomes = false;
  const ScaleResult slim = run_scale(config);
  EXPECT_EQ(slim.outcome_hash, serial.outcome_hash);
  EXPECT_TRUE(slim.outcome_bytes.empty());
}

// --- what a golden run adds to the obs registry ----------------------------
//
// The goldens also pin a run's deltas of the overlay.frontier_peak bins and
// of every fault.* counter: the frontier count exists only for that
// histogram, and the counters see every injected fault.

constexpr const char* kFaultCounters[] = {
    "fault.forward_dropped", "fault.reply_dropped",
    "fault.probe_lost",      "fault.crashed_rx",
    "fault.partition_severed", "fault.duplicated",
    "fault.delay_stamps",    "fault.schedule_events",
};
using FaultCounts = std::array<std::uint64_t, std::size(kFaultCounters)>;

struct MetricMark {
  std::vector<std::uint64_t> frontier;  ///< overlay.frontier_peak bin counts
  FaultCounts faults{};
};

MetricMark metric_mark() {
  auto& registry = obs::Registry::global();
  const obs::Histogram& peak =
      registry.histogram("overlay.frontier_peak", 0.0, 1024.0, 64);
  MetricMark mark;
  for (std::size_t bin = 0; bin < peak.bins(); ++bin) {
    mark.frontier.push_back(peak.count(bin));
  }
  for (std::size_t i = 0; i < mark.faults.size(); ++i) {
    mark.faults[i] = registry.counter(kFaultCounters[i]).value();
  }
  return mark;
}

struct MetricDeltas {
  /// FNV-1a over (bin, delta) of every frontier_peak bin the run moved.
  std::uint64_t frontier = 0;
  FaultCounts faults{};
};

MetricDeltas metric_deltas(const MetricMark& before) {
  const MetricMark after = metric_mark();
  std::vector<std::uint8_t> bytes;
  for (std::size_t bin = 0; bin < after.frontier.size(); ++bin) {
    const std::uint64_t delta = after.frontier[bin] - before.frontier[bin];
    if (delta == 0) continue;
    util::put_u64(bytes, bin);
    util::put_u64(bytes, delta);
  }
  MetricDeltas deltas;
  deltas.frontier = util::fnv1a(bytes);
  for (std::size_t i = 0; i < deltas.faults.size(); ++i) {
    deltas.faults[i] = after.faults[i] - before.faults[i];
  }
  return deltas;
}

// --- golden: run_scale outcomes and round counts ------------------------
//
// Digests captured before the round loop moved to the push-order log and
// holder marks: the outcome hash and the sim.engine.rounds/events counters
// of two faulted 4k-peer kSharded runs, which must not depend on the
// thread or shard count.  The metric deltas were pinned later, before
// settled messages left the order log.  Every value was re-recorded once
// when a forward's fault verdict became a hash of its key (docs/FAULTS.md).

ScaleConfig golden_config(bool retries) {
  ScaleConfig config;
  config.seed = 15;
  config.nodes = 4000;
  config.warmup = 40;
  config.searches = 80;
  config.epochs = 3;
  config.churn = 20;
  config.ttl = 4;
  config.drop = 0.05;
  config.crashed = 8;
  if (retries) {
    config.timeout = 6;
    config.retries = 2;
  }
  return config;
}

struct GoldenRun {
  std::uint64_t hash = 0;
  std::uint64_t rounds = 0;
  std::uint64_t events = 0;
  MetricDeltas metrics;
};

GoldenRun golden_run(ScaleConfig config, std::size_t threads,
                     std::size_t shards) {
  config.threads = threads;
  config.shards = shards;
  auto& registry = obs::Registry::global();
  obs::Counter& rounds = registry.counter("sim.engine.rounds");
  obs::Counter& events = registry.counter("sim.engine.events");
  const std::uint64_t rounds_before = rounds.value();
  const std::uint64_t events_before = events.value();
  const MetricMark metrics_before = metric_mark();
  const ScaleResult result = run_scale(config);
  return {result.outcome_hash, rounds.value() - rounds_before,
          events.value() - events_before, metric_deltas(metrics_before)};
}

void expect_golden(const ScaleConfig& config, const GoldenRun& golden) {
  constexpr std::size_t kThreads[] = {1, 2, 8};
  constexpr std::size_t kShards[] = {1, 3, 8, 32};
  for (const std::size_t threads : kThreads) {
    for (const std::size_t shards : kShards) {
      const GoldenRun run = golden_run(config, threads, shards);
      EXPECT_EQ(run.hash, golden.hash)
          << "threads " << threads << " shards " << shards;
#ifndef AAR_OBS_OFF
      EXPECT_EQ(run.rounds, golden.rounds)
          << "threads " << threads << " shards " << shards;
      EXPECT_EQ(run.events, golden.events)
          << "threads " << threads << " shards " << shards;
      EXPECT_EQ(run.metrics.frontier, golden.metrics.frontier)
          << "threads " << threads << " shards " << shards;
      EXPECT_EQ(run.metrics.faults, golden.metrics.faults)
          << "threads " << threads << " shards " << shards;
#endif
    }
  }
}

TEST(SimEngineGolden, FaultedChurnRunIsPinned) {
  expect_golden(golden_config(false),
                {0x0cd71f0d40f60b0cULL,
                 1425,
                 1617920,
                 {0x1145eeea6d81064cULL, {85414, 723, 0, 9648, 0, 0, 0, 0}}});
}

TEST(SimEngineGolden, FaultedChurnRunWithRetriesIsPinned) {
  expect_golden(golden_config(true),
                {0x6834efc5dfb0c80aULL,
                 1400,
                 1595231,
                 {0x010502d1da7c395dULL, {84159, 721, 0, 9512, 0, 0, 0, 0}}});
}

// --- golden: final hops under every fault ------------------------------
//
// Digests captured before final-hop messages were settled when sent.  A
// kSharded engine routes by association rules at TTL 3 under drops,
// duplicates, delays of up to 2 stamps, slow peers and a crashed peer, with
// a timeout and two retries: truncation meets final hops, and the second
// batch reaches the ladder's final flood.  Churn runs between the batches,
// and an expanding-ring batch ends the run (its ring-1 pass makes every hop
// final).  Pinned: the outcome bytes, the sim.engine.rounds/events counters,
// every peer's RuleSet::save bytes and the run's metric deltas, re-recorded
// once when a forward's fault verdict became a hash of its key.

struct FinalHopRun {
  std::uint64_t outcomes = 0;
  std::uint64_t rules = 0;
  std::uint64_t rounds = 0;
  std::uint64_t events = 0;
  MetricDeltas metrics;
};

FinalHopRun final_hop_run(std::size_t threads, std::size_t shards) {
  util::Rng topo(23);
  EngineConfig config;
  config.seed = 23;
  config.build = EngineConfig::Build::kSharded;
  config.threads = threads;
  config.shards = shards;
  config.files_per_node = 12;
  config.content.files = 2'000;
  config.content.categories = 24;
  Engine engine(config, overlay::make_barabasi_albert(600, 3, topo),
                [](overlay::NodeId) {
                  return std::make_unique<overlay::AssociationRoutingPolicy>();
                });
  fault::FaultPlan plan;
  plan.drop = 0.04;
  plan.duplicate = 0.05;
  plan.max_delay = 2;
  plan.slow_extra = 2;
  for (const overlay::NodeId slow : {3u, 50u, 101u, 333u}) {
    plan.peers.push_back({slow, fault::PeerState::slow});
  }
  plan.peers.push_back({7, fault::PeerState::crashed});
  engine.install_faults(std::make_unique<fault::FaultInjector>(
      plan, fault::FaultSchedule{}, 23, engine.num_nodes()));

  auto& registry = obs::Registry::global();
  obs::Counter& rounds = registry.counter("sim.engine.rounds");
  obs::Counter& events = registry.counter("sim.engine.events");
  const std::uint64_t rounds_before = rounds.value();
  const std::uint64_t events_before = events.value();
  const MetricMark metrics_before = metric_mark();

  std::vector<std::uint8_t> outcomes;
  util::Rng picker(25);
  const auto batch = [&](std::size_t count,
                         const overlay::SearchOptions& options) {
    for (std::size_t i = 0; i < count; ++i) {
      const auto origin =
          static_cast<overlay::NodeId>(picker.below(engine.num_nodes()));
      const workload::FileId target = engine.sample_target(origin);
      overlay::append_outcome(outcomes, engine.search(origin, target, options));
    }
  };
  overlay::SearchOptions routed;
  routed.ttl = 3;
  routed.timeout_stamps = 14;  // below the TTL-3 horizon of 15 stamps
  routed.max_retries = 2;
  batch(300, routed);
  engine.churn(12, 3);
  routed.timeout_stamps = 20;  // room for the retry ladder's final flood
  batch(300, routed);
  overlay::SearchOptions ring;
  ring.mode = overlay::SearchMode::kExpandingRing;
  ring.ttl = 4;
  ring.timeout_stamps = 12;
  batch(150, ring);

  std::string rules;
  for (overlay::NodeId node = 0; node < engine.num_nodes(); ++node) {
    std::ostringstream bytes;
    dynamic_cast<overlay::AssociationRoutingPolicy&>(engine.policy(node))
        .rules()
        .save(bytes);
    rules += bytes.str();
  }
  return {overlay::fnv1a(outcomes),
          overlay::fnv1a({rules.begin(), rules.end()}),
          rounds.value() - rounds_before, events.value() - events_before,
          metric_deltas(metrics_before)};
}

TEST(SimEngineGolden, FinalHopsUnderFaultsArePinned) {
  constexpr std::size_t kThreads[] = {1, 2, 4};
  constexpr std::size_t kShards[] = {1, 8};
  for (const std::size_t threads : kThreads) {
    for (const std::size_t shards : kShards) {
      SCOPED_TRACE("threads " + std::to_string(threads) + " shards " +
                   std::to_string(shards));
      const FinalHopRun run = final_hop_run(threads, shards);
      EXPECT_EQ(run.outcomes, 0xce9c9b9adf3fd502ULL);
      EXPECT_EQ(run.rules, 0x26af2b6ff87a0726ULL);
#ifndef AAR_OBS_OFF
      EXPECT_EQ(run.rounds, 8951u);
      EXPECT_EQ(run.events, 315763u);
      EXPECT_EQ(run.metrics.frontier, 0x522e7e85f3aff217ULL);
      EXPECT_EQ(run.metrics.faults,
                (FaultCounts{13629, 308, 0, 2895, 0, 16330, 390839, 0}));
#endif
    }
  }
}

// --- golden: random-k association routing --------------------------------
//
// Random-k association routing draws in route(), which runs in the
// parallel phase: each call gets its own stream split from (guid, peer), so
// the outcome bytes are the same for every thread and shard count.
// The engine seeds a stream for every routed event.

std::uint64_t random_k_run(std::size_t threads, std::size_t shards) {
  util::Rng topo(31);
  EngineConfig config;
  config.seed = 31;
  config.build = EngineConfig::Build::kSharded;
  config.threads = threads;
  config.shards = shards;
  config.files_per_node = 12;
  config.content.files = 2'000;
  config.content.categories = 24;
  config.engine_metrics = false;
  overlay::AssociationPolicyConfig random_k;
  random_k.forwarder = {.k = 2, .mode = core::SelectionMode::kRandomK};
  Engine engine(config, overlay::make_barabasi_albert(600, 3, topo),
                [random_k](overlay::NodeId) {
                  return std::make_unique<overlay::AssociationRoutingPolicy>(
                      random_k);
                });
  std::vector<std::uint8_t> outcomes;
  util::Rng picker(33);
  overlay::SearchOptions options;
  options.ttl = 4;
  for (int i = 0; i < 400; ++i) {
    const auto origin =
        static_cast<overlay::NodeId>(picker.below(engine.num_nodes()));
    const workload::FileId target = engine.sample_target(origin);
    overlay::append_outcome(outcomes, engine.search(origin, target, options));
  }
  return overlay::fnv1a(outcomes);
}

TEST(SimEngineGolden, RandomKAssociationIsPinned) {
  constexpr std::size_t kThreads[] = {1, 2};
  constexpr std::size_t kShards[] = {1, 3, 8};
  for (const std::size_t threads : kThreads) {
    for (const std::size_t shards : kShards) {
      EXPECT_EQ(random_k_run(threads, shards), 0x80688241dedf8f39ULL)
          << "threads " << threads << " shards " << shards;
    }
  }
}

// --- final hops at the budget ---------------------------------------------
//
// A TTL-1 event applied at the budget's own stamp sends hops that cannot
// arrive before the pass ends: slot now + 1 lies past the pass's calendar,
// and those hops must touch none of its per-slot state.  Every run uses a
// fresh engine, so no earlier, longer pass has sized the calendar past the
// budget.  Digests recorded on the code that pushed every final hop
// through send(); the faulted two re-recorded once when a forward's fault
// verdict became a hash of its key.

std::uint64_t budget_edge_run(std::uint32_t ttl, std::uint32_t timeout,
                              bool faulted, std::size_t threads) {
  EngineConfig config;
  config.seed = 41;
  config.build = EngineConfig::Build::kSharded;
  config.threads = threads;
  config.shards = 4;
  config.engine_metrics = false;
  Engine engine(config, small_graph(43, 300, 3), flooding_factory());
  if (faulted) {
    fault::FaultPlan plan;
    plan.drop = 0.05;
    plan.duplicate = 0.1;
    plan.max_delay = 1;
    plan.peers.push_back({11, fault::PeerState::slow});
    engine.install_faults(std::make_unique<fault::FaultInjector>(
        plan, fault::FaultSchedule{}, 47, engine.num_nodes()));
  }
  overlay::SearchOptions options;
  options.ttl = ttl;
  options.timeout_stamps = timeout;
  std::vector<std::uint8_t> outcomes;
  util::Rng picker(45);
  for (int i = 0; i < 80; ++i) {
    const auto origin =
        static_cast<overlay::NodeId>(picker.below(engine.num_nodes()));
    const workload::FileId target = engine.sample_target(origin);
    overlay::append_outcome(outcomes, engine.search(origin, target, options));
  }
  return overlay::fnv1a(outcomes);
}

TEST(SimEngine, FinalHopsPastTheBudgetArePinned) {
  struct Case {
    std::uint32_t ttl;
    std::uint32_t timeout;
    bool faulted;
    std::uint64_t digest;
  };
  constexpr Case kCases[] = {
      {2, 1, false, 0x8d8b6f89c0276331ULL},
      {4, 3, false, 0x6d4f2fe192378db1ULL},
      {2, 1, true, 0x4dd6cf6638fbd93aULL},
      {4, 3, true, 0x8ec340429b075ba9ULL},
  };
  for (const Case& c : kCases) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
      EXPECT_EQ(budget_edge_run(c.ttl, c.timeout, c.faulted, threads),
                c.digest)
          << "ttl " << c.ttl << " timeout " << c.timeout << " faulted "
          << c.faulted << " threads " << threads;
    }
  }
}

}  // namespace
}  // namespace aar::sim
