#include "sim/scale.hpp"

#include <chrono>
#include <memory>
#include <utility>

#include "overlay/fault_experiment.hpp"
#include "overlay/topology.hpp"
#include "sim/experiment.hpp"
#include "util/bytes.hpp"

namespace aar::sim {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

std::vector<SimEvent> compile_schedule(const ScaleConfig& config) {
  std::vector<SimEvent> schedule;
  schedule.reserve(config.epochs * (config.searches + 1));
  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    for (std::size_t q = 0; q < config.searches; ++q) {
      schedule.push_back({SimEventKind::kSearch, 0});
    }
    if (epoch + 1 < config.epochs && config.churn > 0) {
      schedule.push_back({SimEventKind::kChurn, config.churn});
    }
  }
  return schedule;
}

ScaleResult run_scale(const ScaleConfig& config) {
  const overlay::PolicyFactory factory =
      overlay::scenario_policy_factory(config.policy);

  ScaleResult result;
  result.nodes = config.nodes;

  const Clock::time_point build_start = Clock::now();
  util::Rng topo_rng(config.seed);
  overlay::Graph graph =
      overlay::make_barabasi_albert(config.nodes, config.attach, topo_rng);
  EngineConfig engine_config;
  engine_config.seed = config.seed + 1;
  engine_config.build = EngineConfig::Build::kSharded;
  engine_config.threads = config.threads;
  engine_config.shards = config.shards;
  engine_config.engine_metrics = config.engine_metrics;
  engine_config.files_per_node = config.files_per_node;
  engine_config.interest_breadth = config.interest_breadth;
  engine_config.content = config.content;
  Engine engine(engine_config, std::move(graph), factory);

  if (config.drop > 0.0 || config.crashed > 0) {
    fault::FaultPlan plan;
    plan.drop = config.drop;
    if (config.crashed > 0) {
      // Spread the crashed peers across the id space deterministically.
      const std::size_t stride =
          std::max<std::size_t>(1, config.nodes / config.crashed);
      for (std::size_t i = 0; i < config.crashed && i * stride < config.nodes;
           ++i) {
        plan.peers.push_back({static_cast<overlay::NodeId>(i * stride),
                              fault::PeerState::crashed});
      }
    }
    engine.install_faults(std::make_unique<fault::FaultInjector>(
        plan, fault::FaultSchedule{}, config.seed, config.nodes));
  }
  result.build_seconds = seconds_since(build_start);

  overlay::SearchOptions options;
  options.ttl = config.ttl;
  options.timeout_stamps = config.timeout;
  options.max_retries = config.retries;

  util::Rng driver(config.seed + 2);
  const auto one_search = [&](bool measured) {
    const overlay::SearchOutcome outcome = issue_query(engine, options, driver);
    if (!measured) return;
    ++result.searches;
    if (outcome.hit) ++result.hits;
    if (outcome.timed_out) ++result.timeouts;
    result.query_messages += outcome.query_messages;
    result.reply_messages += outcome.reply_messages;
    result.probe_messages += outcome.probe_messages;
    result.dropped += outcome.dropped_messages;
    result.nodes_reached += outcome.nodes_reached;
    overlay::append_outcome(result.outcome_bytes, outcome);
  };

  const Clock::time_point warmup_start = Clock::now();
  for (std::size_t i = 0; i < config.warmup; ++i) one_search(false);
  result.warmup_seconds = seconds_since(warmup_start);

  const std::vector<SimEvent> schedule = compile_schedule(config);
  const Clock::time_point run_start = Clock::now();
  for (const SimEvent& event : schedule) {
    switch (event.kind) {
      case SimEventKind::kSearch:
        one_search(true);
        break;
      case SimEventKind::kChurn:
        engine.churn(static_cast<std::size_t>(event.count), config.attach);
        result.churned += event.count;
        break;
    }
  }
  result.run_seconds = seconds_since(run_start);

  result.outcome_hash = util::fnv1a(result.outcome_bytes);
  if (!config.record_outcomes) {
    result.outcome_bytes.clear();
    result.outcome_bytes.shrink_to_fit();
  }
  return result;
}

}  // namespace aar::sim
