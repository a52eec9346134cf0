#pragma once
// Workload drivers for overlay experiments on sim::Engine.
//
//   * make_network / run_queries / run_experiment build a Barabási–Albert
//     overlay with one policy everywhere, issue interest-driven queries
//     (warm-up first so learning policies converge), and aggregate
//     per-policy traffic statistics.  Benches N1-N6 and the file_sharing
//     example are thin wrappers over these.
//   * adapt_topology runs one round of the §VI topology adaptation.
//   * local_document_counts feeds the routing-indices baseline.
//   * run_fault_scenario runs a fault::Scenario end to end (`aar_sim
//     faults`, bench_n6's fault grid, the fault suites).
//
// Every network is built with EngineConfig::Build::kLegacy from three
// streams: the topology from `seed`, the engine's workload rng from
// `seed + 1`, and the query driver from `seed + 2`.  A run is a pure
// function of its configuration — never of the thread or shard count.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "fault/scenario.hpp"
#include "overlay/fault_experiment.hpp"
#include "overlay/policy.hpp"
#include "overlay/search.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace aar::sim {

struct ExperimentConfig {
  std::uint64_t seed = 7;
  std::size_t nodes = 2'000;
  std::size_t attach = 3;            ///< Barabási–Albert attachment degree
  std::size_t warmup_queries = 5'000;
  std::size_t measure_queries = 5'000;
  /// Peer population and engine threads; make_network sets seed and build.
  EngineConfig engine{};
  overlay::SearchOptions options{};
};

/// Aggregated outcome of a measured query batch.
struct TrafficStats {
  std::string policy;
  std::uint64_t queries = 0;
  std::uint64_t hits = 0;
  std::uint64_t fallbacks = 0;
  std::uint64_t rule_routed = 0;
  util::Running total_messages;
  util::Running query_messages;
  util::Running reply_messages;
  util::Running probe_messages;
  util::Running nodes_reached;
  util::Running hops;  ///< hops to first hit, successful queries only

  [[nodiscard]] double success_rate() const noexcept {
    return queries == 0 ? 0.0
                        : static_cast<double>(hits) / static_cast<double>(queries);
  }
  [[nodiscard]] double fallback_rate() const noexcept {
    return queries == 0
               ? 0.0
               : static_cast<double>(fallbacks) / static_cast<double>(queries);
  }
  [[nodiscard]] double rule_routed_rate() const noexcept {
    return queries == 0
               ? 0.0
               : static_cast<double>(rule_routed) / static_cast<double>(queries);
  }
};

/// Build a connected Barabási–Albert network with one policy everywhere.
[[nodiscard]] Engine make_network(const ExperimentConfig& config,
                                  const overlay::PolicyFactory& factory);

/// Issue one query from a random origin for a target of its interests.
/// Targets the origin already stores are re-sampled (users do not search
/// for what they have).
overlay::SearchOutcome issue_query(Engine& engine,
                                   const overlay::SearchOptions& options,
                                   util::Rng& rng);

/// Issue `count` queries; aggregates into `stats` unless it is null
/// (warm-up mode).
void run_queries(Engine& engine, std::size_t count,
                 const overlay::SearchOptions& options, util::Rng& rng,
                 TrafficStats* stats);

/// Full experiment: warm-up then measurement.  `label` names the row.
[[nodiscard]] TrafficStats run_experiment(const std::string& label,
                                          Engine& engine,
                                          const ExperimentConfig& config);

/// Per-peer per-category local document counts, from the peers' stores.
[[nodiscard]] std::vector<std::vector<double>> local_document_counts(
    const Engine& engine);

// --- rule-driven topology adaptation (§VI) -------------------------------
//
//   "instead of forwarding query messages to a neighbor, which will in turn
//    forward the message on to one of its neighbors, a node could ask its
//    neighbors to which node they would forward queries from it.  Once the
//    node has this information, it could attempt to make this third node a
//    new neighbor, which would result in queries being forwarded in the
//    future requiring one less hop in the path to its target."
//
// adapt_topology() performs one round of exactly that handshake for every
// node running AssociationRoutingPolicy: for each consequent Y of the node's
// own-query rules, it asks Y which neighbor Z Y's rules name for queries
// arriving from X, and adds the shortcut edge X—Z.  The N3 bench measures
// hop-count and traffic before/after.

struct AdaptationReport {
  std::size_t adopters = 0;        ///< nodes running association routing
  std::size_t asked = 0;           ///< (X, Y) handshakes performed
  std::size_t edges_added = 0;     ///< new X—Z overlay links
  std::size_t already_linked = 0;  ///< Z was already a neighbor of X
};

/// One adaptation round over the whole network.  `max_new_links_per_node`
/// caps the degree growth of any single node.
AdaptationReport adapt_topology(Engine& engine,
                                std::size_t max_new_links_per_node = 2);

// --- fault scenarios ------------------------------------------------------

struct EngineRunOptions {
  std::size_t threads = 1;
  std::size_t shards = 0;  ///< 0 = engine default
  /// Record the sim.engine.* family.  Off by default so the metrics
  /// snapshot of a fault run holds the overlay.* and fault.* families only.
  bool engine_metrics = false;
};

/// Run `scenario` to completion from `seed`: install the injector, then
/// drive an epoch-structured workload (warm-up, `epochs` measured epochs,
/// churn between them).  `faulted = false` strips the injector entirely
/// (the lossless baseline) while keeping topology, stores, and the query
/// stream identical.  The result — outcome_bytes included — is the same
/// for any `options`.
[[nodiscard]] overlay::FaultRunResult run_fault_scenario(
    const fault::Scenario& scenario, std::uint64_t seed, bool faulted = true,
    const EngineRunOptions& options = {});

}  // namespace aar::sim
