#include "sim/experiment.hpp"

#include <memory>
#include <utility>

#include "overlay/assoc_policy.hpp"
#include "overlay/topology.hpp"
#include "util/bytes.hpp"

namespace aar::sim {

Engine make_network(const ExperimentConfig& config,
                    const overlay::PolicyFactory& factory) {
  util::Rng rng(config.seed);
  overlay::Graph graph =
      overlay::make_barabasi_albert(config.nodes, config.attach, rng);
  EngineConfig engine = config.engine;
  engine.seed = config.seed + 1;
  engine.build = EngineConfig::Build::kLegacy;
  return Engine(engine, std::move(graph), factory);
}

overlay::SearchOutcome issue_query(Engine& engine,
                                   const overlay::SearchOptions& options,
                                   util::Rng& rng) {
  const auto origin = static_cast<NodeId>(rng.below(engine.num_nodes()));
  workload::FileId target = engine.sample_target(origin);
  for (int attempt = 0; attempt < 8 && engine.store_has(origin, target);
       ++attempt) {
    target = engine.sample_target(origin);
  }
  return engine.search(origin, target, options);
}

void run_queries(Engine& engine, std::size_t count,
                 const overlay::SearchOptions& options, util::Rng& rng,
                 TrafficStats* stats) {
  for (std::size_t i = 0; i < count; ++i) {
    const overlay::SearchOutcome outcome = issue_query(engine, options, rng);
    if (stats == nullptr) continue;
    ++stats->queries;
    if (outcome.hit) {
      ++stats->hits;
      stats->hops.add(static_cast<double>(outcome.hops_to_first_hit));
    }
    if (outcome.used_fallback) ++stats->fallbacks;
    if (outcome.rule_routed) ++stats->rule_routed;
    stats->total_messages.add(static_cast<double>(outcome.total_messages()));
    stats->query_messages.add(static_cast<double>(outcome.query_messages));
    stats->reply_messages.add(static_cast<double>(outcome.reply_messages));
    stats->probe_messages.add(static_cast<double>(outcome.probe_messages));
    stats->nodes_reached.add(static_cast<double>(outcome.nodes_reached));
  }
}

TrafficStats run_experiment(const std::string& label, Engine& engine,
                            const ExperimentConfig& config) {
  util::Rng rng(config.seed + 2);
  run_queries(engine, config.warmup_queries, config.options, rng, nullptr);
  TrafficStats stats;
  stats.policy = label;
  run_queries(engine, config.measure_queries, config.options, rng, &stats);
  return stats;
}

std::vector<std::vector<double>> local_document_counts(const Engine& engine) {
  const workload::ContentCatalogue& catalogue = engine.catalogue();
  std::vector<std::vector<double>> docs(
      engine.num_nodes(), std::vector<double>(catalogue.categories(), 0.0));
  for (NodeId node = 0; node < engine.num_nodes(); ++node) {
    for (const workload::FileId file : engine.store(node)) {
      docs[node][catalogue.category_of(file)] += 1.0;
    }
  }
  return docs;
}

AdaptationReport adapt_topology(Engine& engine,
                                std::size_t max_new_links_per_node) {
  AdaptationReport report;
  const auto n = static_cast<NodeId>(engine.num_nodes());
  for (NodeId x = 0; x < n; ++x) {
    auto* x_policy =
        dynamic_cast<overlay::AssociationRoutingPolicy*>(&engine.policy(x));
    if (x_policy == nullptr) continue;
    ++report.adopters;

    std::size_t added_here = 0;
    // X's rules for its *own* queries have antecedent == X (self-issued
    // queries are "received from self").
    for (const core::Consequent& to_y : x_policy->rules().consequents(x)) {
      if (added_here >= max_new_links_per_node) break;
      const auto y = static_cast<NodeId>(to_y.neighbor);
      if (y >= n || y == x) continue;
      auto* y_policy =
          dynamic_cast<overlay::AssociationRoutingPolicy*>(&engine.policy(y));
      if (y_policy == nullptr) continue;  // Y cannot answer the question
      ++report.asked;
      // "To which node would you forward queries arriving from me?"
      const std::vector<core::HostId> z_candidates =
          y_policy->rules().top_k(x, 1);
      if (z_candidates.empty()) continue;
      const auto z = static_cast<NodeId>(z_candidates.front());
      if (z >= n || z == x || z == y) continue;
      if (engine.graph().has_edge(x, z)) {
        ++report.already_linked;
        continue;
      }
      if (engine.add_link(x, z)) {
        ++report.edges_added;
        ++added_here;
      }
    }
  }
  return report;
}

overlay::FaultRunResult run_fault_scenario(const fault::Scenario& scenario,
                                           std::uint64_t seed, bool faulted,
                                           const EngineRunOptions& options) {
  // The fault rng is split from `seed` inside the injector, so the faulted
  // and lossless runs share topology, stores, and the query stream bit for
  // bit.
  ExperimentConfig config;
  config.seed = seed;
  config.nodes = scenario.nodes;
  config.attach = scenario.attach;
  config.engine.threads = options.threads;
  config.engine.shards = options.shards;
  config.engine.engine_metrics = options.engine_metrics;
  Engine engine =
      make_network(config, overlay::scenario_policy_factory(scenario.policy));
  if (faulted) {
    engine.install_faults(std::make_unique<fault::FaultInjector>(
        scenario.plan, scenario.schedule, seed, scenario.nodes));
  }

  overlay::SearchOptions search;
  search.ttl = scenario.ttl;
  search.timeout_stamps = scenario.timeout;
  search.max_retries = scenario.retries;
  search.backoff_base = scenario.backoff;
  search.backoff_jitter = scenario.jitter;
  search.widen_per_retry = scenario.widen;

  // Warm-up and measurement are one continuous stream over the driver rng.
  util::Rng driver(seed + 2);
  run_queries(engine, scenario.warmup, search, driver, nullptr);

  overlay::FaultRunResult result;
  result.epochs.reserve(scenario.epochs);
  for (std::size_t epoch = 0; epoch < scenario.epochs; ++epoch) {
    overlay::FaultEpochStats stats;
    for (std::size_t q = 0; q < scenario.queries; ++q) {
      const overlay::SearchOutcome outcome = issue_query(engine, search, driver);
      ++stats.searches;
      if (outcome.hit) ++stats.hits;
      if (outcome.timed_out) ++stats.timeouts;
      if (outcome.degraded_to_flood) ++stats.degraded_floods;
      stats.retries += outcome.retries_used;
      stats.dropped += outcome.dropped_messages;
      stats.messages += outcome.total_messages();
      stats.nodes_reached += outcome.nodes_reached;
      overlay::append_outcome(result.outcome_bytes, outcome);
    }
    result.searches += stats.searches;
    result.hits += stats.hits;
    result.epochs.push_back(stats);
    if (epoch + 1 < scenario.epochs && scenario.churn > 0) {
      engine.churn(scenario.churn, scenario.attach);
    }
  }
  result.outcome_hash = util::fnv1a(result.outcome_bytes);
  return result;
}

}  // namespace aar::sim
