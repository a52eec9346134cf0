// N2 — partial-deployment sweep.
//
// Paper Section III-B: "all nodes in the network do not need to support this
// routing method in order for one node to use it, although the benefits
// increase as the number of nodes using this routing technique increases."
// We sweep the fraction of adopting nodes from 0% to 100% and measure
// per-query traffic and success.

#include <iostream>
#include <memory>

#include "bench_common.hpp"
#include "overlay/assoc_policy.hpp"
#include "sim/experiment.hpp"
#include "util/csv.hpp"

int main() {
  aar::bench::PerfRecord perf("n2_adoption");
  using namespace aar;
  using namespace aar::overlay;
  using namespace aar::sim;
  bench::print_header("N2", "traffic vs fraction of adopting nodes (§III-B)");

  ExperimentConfig config;
  config.seed = 23;
  config.nodes = 1'200;
  config.warmup_queries = 3'000;
  config.measure_queries = 3'000;

  const std::vector<double> fractions{0.0, 0.25, 0.5, 0.75, 1.0};
  std::vector<TrafficStats> results;
  for (const double fraction : fractions) {
    // Deterministic adoption assignment, independent of the sweep order.
    util::Rng assign(config.seed + 1'000);
    Engine net = make_network(
        config,
        [fraction, &assign](NodeId) -> std::unique_ptr<RoutingPolicy> {
          if (assign.chance(fraction)) {
            return std::make_unique<AssociationRoutingPolicy>();
          }
          return std::make_unique<FloodingPolicy>();
        });
    results.push_back(run_experiment(
        util::Table::pct(fraction, 0) + " adopt", net, config));
  }

  util::Table table({"adoption", "success", "msgs/query", "vs 0%", "fallback"});
  const double base = results.front().total_messages.mean();
  for (const TrafficStats& s : results) {
    table.row({s.policy, util::Table::pct(s.success_rate()),
               util::Table::num(s.total_messages.mean(), 0),
               util::Table::pct(s.total_messages.mean() / base, 0),
               util::Table::pct(s.fallback_rate(), 0)});
  }
  table.print(std::cout);

  {
    util::CsvWriter csv(aar::bench::out_path("n2_adoption.csv"));
    csv.header({"adoption_fraction", "success_rate", "total_messages"});
    for (std::size_t i = 0; i < fractions.size(); ++i) {
      csv.row({fractions[i], results[i].success_rate(),
               results[i].total_messages.mean()});
    }
    std::cout << "rows written to out/n2_adoption.csv\n";
  }

  const double full = results.back().total_messages.mean();
  const double half = results[2].total_messages.mean();
  std::vector<bench::PaperRow> rows{
      {"50% adoption already saves traffic", "benefits at partial deployment",
       half / base, half < 0.95 * base},
      {"100% adoption saves more than 50%", "benefits increase with adopters",
       full / base, full < half},
      {"success at full adoption", "not dramatically lower",
       results.back().success_rate(),
       results.back().success_rate() > results.front().success_rate() - 0.03},
  };
  return perf.finish(bench::print_comparison(rows));
}
