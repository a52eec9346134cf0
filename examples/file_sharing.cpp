// file_sharing: a Gnutella-style file-sharing network where half the peers
// deploy association routing, live.
//
//   $ ./file_sharing [nodes] [queries]
//
// Builds a power-law overlay with interest-clustered content, runs an
// interest-driven query workload, and shows (a) network-wide traffic under
// flooding vs association routing, and (b) what one adopting node's learned
// rule set looks like — the view the paper's modified Gnutella node had.

#include <cstdlib>
#include <iostream>
#include <memory>

#include "overlay/assoc_policy.hpp"
#include "sim/experiment.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace aar;
  using namespace aar::overlay;
  using namespace aar::sim;
  ExperimentConfig config;
  config.seed = 99;
  config.nodes = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 1'000;
  const std::size_t queries =
      argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 3'000;
  config.warmup_queries = queries;
  config.measure_queries = queries;

  std::cout << "building a " << config.nodes
            << "-node unstructured overlay (Barabasi-Albert, Zipf content, "
               "interest-clustered stores)...\n";

  // Baseline: everyone floods.
  Engine flood_net = make_network(
      config, [](NodeId) { return std::make_unique<FloodingPolicy>(); });
  const TrafficStats flooding = run_experiment("flooding", flood_net, config);

  // Treatment: everyone mines association rules from the replies they relay.
  Engine assoc_net = make_network(config, [](NodeId) {
    return std::make_unique<AssociationRoutingPolicy>();
  });
  const TrafficStats assoc = run_experiment("association", assoc_net, config);

  util::Table table({"policy", "success", "msgs/query", "nodes reached",
                     "hops to hit", "fallback floods"});
  for (const TrafficStats* s : {&flooding, &assoc}) {
    table.row({s->policy, util::Table::pct(s->success_rate()),
               util::Table::num(s->total_messages.mean(), 0),
               util::Table::num(s->nodes_reached.mean(), 0),
               util::Table::num(s->hops.mean(), 2),
               util::Table::pct(s->fallback_rate(), 0)});
  }
  table.print(std::cout);
  const double saved =
      1.0 - assoc.total_messages.mean() / flooding.total_messages.mean();
  std::cout << "\nassociation routing moved " << util::Table::pct(saved, 1)
            << " of per-query traffic out of the network at "
            << util::Table::pct(assoc.success_rate() - flooding.success_rate(),
                                1)
            << " success difference.\n\n";

  // Peek inside one busy adopting node: its mined rule set.
  NodeId busiest = 0;
  for (NodeId n = 0; n < assoc_net.num_nodes(); ++n) {
    if (assoc_net.graph().degree(n) > assoc_net.graph().degree(busiest)) {
      busiest = n;
    }
  }
  const auto& policy =
      dynamic_cast<AssociationRoutingPolicy&>(assoc_net.policy(busiest));
  std::cout << "node " << busiest << " (degree "
            << assoc_net.graph().degree(busiest) << ") mined "
            << policy.rules().num_rules() << " rules; it rule-routed "
            << policy.rule_hits()
            << " queries.\nsample of its routing table:\n";
  std::size_t shown = 0;
  policy.rules().for_each([&](core::HostId antecedent,
                              std::span<const core::Consequent> consequents) {
    if (shown++ >= 8) return;
    std::cout << "  queries from ";
    if (antecedent == busiest) {
      std::cout << "itself";
    } else {
      std::cout << "neighbor " << antecedent;
    }
    std::cout << " -> forward to neighbor " << consequents[0].neighbor
              << " (support " << consequents[0].support << ")\n";
  });
  return 0;
}
