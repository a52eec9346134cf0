// N1 — overlay traffic validation of the headline claim.
//
// The paper motivates association routing by the traffic cost of flooding
// (Sections I and III-B) but evaluates only the rule-set measures.  This
// bench closes the loop on a simulated 2,000-node unstructured overlay: the
// same interest-driven workload runs under flooding, expanding ring,
// k-random walks, interest shortcuts, routing indices, and association
// routing, and the per-query message costs are compared end to end.

#include <iostream>
#include <memory>

#include "bench_common.hpp"
#include "overlay/assoc_policy.hpp"
#include "overlay/hybrid.hpp"
#include "overlay/routing_indices.hpp"
#include "overlay/shortcuts.hpp"
#include "sim/experiment.hpp"
#include "util/csv.hpp"

int main() {
  aar::bench::PerfRecord perf("n1_overlay_traffic");
  using namespace aar;
  using namespace aar::overlay;
  using namespace aar::sim;
  bench::print_header("N1", "per-query traffic by routing policy (2,000 nodes)");

  ExperimentConfig config;
  config.seed = 17;
  config.nodes = 2'000;
  config.attach = 3;
  config.warmup_queries = 4'000;
  config.measure_queries = 4'000;

  std::vector<TrafficStats> results;

  {
    Engine net = make_network(
        config, [](NodeId) { return std::make_unique<FloodingPolicy>(); });
    results.push_back(run_experiment("flooding (TTL 7)", net, config));
  }
  {
    auto ring = config;
    ring.options.mode = SearchMode::kExpandingRing;
    Engine net = make_network(
        ring, [](NodeId) { return std::make_unique<FloodingPolicy>(); });
    results.push_back(run_experiment("expanding ring", net, ring));
  }
  {
    auto walk = config;
    walk.options.ttl = 512;
    Engine net = make_network(
        walk, [](NodeId) { return std::make_unique<KRandomWalkPolicy>(32); });
    results.push_back(run_experiment("32-random walks", net, walk));
  }
  {
    Engine net = make_network(config, [](NodeId) {
      return std::make_unique<InterestShortcutsPolicy>();
    });
    results.push_back(run_experiment("interest shortcuts", net, config));
  }
  {
    Engine net = make_network(
        config, [](NodeId) { return std::make_unique<FloodingPolicy>(); });
    auto table = std::make_shared<RoutingIndexTable>(
        net.graph(), local_document_counts(net), 4, 0.5);
    for (NodeId n = 0; n < net.num_nodes(); ++n) {
      net.set_policy(n, std::make_unique<RoutingIndicesPolicy>(
                            table, RoutingIndicesConfig{}));
    }
    results.push_back(run_experiment("routing indices", net, config));
  }
  {
    Engine net = make_network(config, [](NodeId) {
      return std::make_unique<AssociationRoutingPolicy>();
    });
    results.push_back(run_experiment("association (this paper)", net, config));
  }
  {
    // Section VI combination: shortcuts first, rules as the "last chance
    // to avoid flooding".
    Engine net = make_network(config, [](NodeId) {
      return std::make_unique<HybridShortcutsAssociationPolicy>();
    });
    results.push_back(run_experiment("shortcuts+association (SVI)", net, config));
  }

  util::Table table({"policy", "success", "msgs/query", "query msgs",
                     "vs flooding", "hops", "fallback", "rule-routed"});
  const double flood_messages = results.front().total_messages.mean();
  for (const TrafficStats& s : results) {
    table.row({s.policy, util::Table::pct(s.success_rate()),
               util::Table::num(s.total_messages.mean(), 0),
               util::Table::num(s.query_messages.mean(), 0),
               util::Table::pct(s.total_messages.mean() / flood_messages, 0),
               util::Table::num(s.hops.mean(), 2),
               util::Table::pct(s.fallback_rate(), 0),
               util::Table::pct(s.rule_routed_rate(), 0)});
  }
  table.print(std::cout);

  {
    util::CsvWriter csv(aar::bench::out_path("n1_overlay_traffic.csv"));
    csv.header({"policy", "success_rate", "total_messages", "query_messages",
                "hops", "fallback_rate", "rule_routed_rate"});
    for (const TrafficStats& s : results) {
      std::vector<std::string> cells{
          s.policy,
          util::Table::num(s.success_rate(), 4),
          util::Table::num(s.total_messages.mean(), 1),
          util::Table::num(s.query_messages.mean(), 1),
          util::Table::num(s.hops.mean(), 2),
          util::Table::num(s.fallback_rate(), 3),
          util::Table::num(s.rule_routed_rate(), 3)};
      csv.row(std::span<const std::string>(cells));
    }
    std::cout << "rows written to out/n1_overlay_traffic.csv\n";
  }

  const TrafficStats& flooding = results.front();
  const TrafficStats& assoc = results[results.size() - 2];
  const TrafficStats& hybrid = results.back();
  std::vector<bench::PaperRow> rows{
      {"association traffic vs flooding", "considerably less",
       assoc.total_messages.mean() / flooding.total_messages.mean(),
       assoc.total_messages.mean() < 0.8 * flooding.total_messages.mean()},
      {"association success vs flooding", "should not decrease dramatically",
       assoc.success_rate() - flooding.success_rate(),
       assoc.success_rate() > flooding.success_rate() - 0.03},
      {"rules actually route queries", "> 0", assoc.rule_routed_rate(),
       assoc.rule_routed_rate() > 0.05},
      {"hybrid (SVI) saves at least as much as association alone",
       "one last chance to avoid flooding",
       hybrid.total_messages.mean() / assoc.total_messages.mean(),
       hybrid.total_messages.mean() < 1.05 * assoc.total_messages.mean()},
  };
  return perf.finish(bench::print_comparison(rows));
}
