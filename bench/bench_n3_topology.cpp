// N3 — rule-driven topology adaptation (paper Section VI).
//
// "a node could ask its neighbors to which node they would forward queries
// from it ... it could attempt to make this third node a new neighbor, which
// would result in queries being forwarded in the future requiring one less
// hop in the path to its target."
//
// Protocol: warm an all-association network up, run one adaptation round,
// then measure the same workload again and compare hop counts and traffic.

#include <iostream>
#include <memory>

#include "bench_common.hpp"
#include "overlay/assoc_policy.hpp"
#include "sim/experiment.hpp"

int main() {
  aar::bench::PerfRecord perf("n3_topology");
  using namespace aar;
  using namespace aar::overlay;
  using namespace aar::sim;
  bench::print_header("N3", "rule-driven topology adaptation (§VI)");

  ExperimentConfig config;
  config.seed = 29;
  config.nodes = 1'200;
  config.warmup_queries = 4'000;
  config.measure_queries = 4'000;

  Engine net = make_network(config, [](NodeId) {
    return std::make_unique<AssociationRoutingPolicy>();
  });

  // Phase 1: warm up and measure the un-adapted network.
  util::Rng rng(config.seed + 2);
  run_queries(net, config.warmup_queries, config.options, rng, nullptr);
  TrafficStats before;
  before.policy = "before adaptation";
  run_queries(net, config.measure_queries, config.options, rng, &before);

  // Phase 2: one adaptation round ("ask your neighbors").
  const std::size_t edges_before = net.graph().num_edges();
  const AdaptationReport report = adapt_topology(net, 2);
  std::cout << "adaptation: " << report.adopters << " adopters, "
            << report.asked << " handshakes, " << report.edges_added
            << " new links (" << report.already_linked
            << " already existed); edges " << edges_before << " -> "
            << net.graph().num_edges() << "\n";

  // Phase 3: re-measure the same workload distribution.
  TrafficStats after;
  after.policy = "after adaptation";
  run_queries(net, config.measure_queries, config.options, rng, &after);

  util::Table table({"phase", "success", "hops to hit", "msgs/query",
                     "rule-routed"});
  for (const TrafficStats* s : {&before, &after}) {
    table.row({s->policy, util::Table::pct(s->success_rate()),
               util::Table::num(s->hops.mean(), 3),
               util::Table::num(s->total_messages.mean(), 0),
               util::Table::pct(s->rule_routed_rate(), 0)});
  }
  table.print(std::cout);

  std::cout << "note: shortcut links densify the overlay, so the *fallback*\n"
               "floods that rescue rule misses get more expensive — a cost\n"
               "the paper's sketch of this extension does not discuss.  The\n"
               "hop-count benefit it predicts is real but small, because\n"
               "origin-side rules already route one-hop-precise.\n";

  std::vector<bench::PaperRow> rows{
      {"new links were negotiated", "make this third node a new neighbor",
       static_cast<double>(report.edges_added), report.edges_added > 0},
      {"hops to first hit shrink", "one less hop in the path",
       before.hops.mean() - after.hops.mean(),
       after.hops.mean() < before.hops.mean()},
      {"success does not degrade", "same result quality",
       after.success_rate() - before.success_rate(),
       after.success_rate() > before.success_rate() - 0.02},
  };
  return perf.finish(bench::print_comparison(rows));
}
