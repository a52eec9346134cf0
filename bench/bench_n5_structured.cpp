// N5 — structured (Chord) baseline (paper Section II, references [11]-[13]).
//
// Three claims from the paper's related-work critique, quantified against
// the same 2,000-peer scale:
//   1. "Queries can efficiently find content by following the rules of the
//      system" — O(log N) lookup hops/messages vs flooding's thousands.
//   2. "queries must match the content exactly, so wild card searches ...
//      will not find the corresponding content" — a keyword-mix workload
//      where only a fraction of queries knows the exact key.
//   3. "if a certain set of the nodes fail simultaneously, the network can
//      become disconnected" — lookup failure under mass failure before
//      stabilization, vs an unstructured overlay's giant component.

#include <cmath>
#include <iostream>
#include <memory>

#include "bench_common.hpp"
#include "dht/chord.hpp"
#include "overlay/topology.hpp"
#include "sim/experiment.hpp"
#include "util/csv.hpp"

int main() {
  aar::bench::PerfRecord perf("n5_structured");
  using namespace aar;
  bench::print_header("N5", "Chord DHT vs unstructured search (§II critique)");

  constexpr std::size_t kNodes = 2'000;
  constexpr std::size_t kQueries = 4'000;
  dht::ChordConfig chord_config;
  chord_config.nodes = kNodes;
  chord_config.seed = 37;
  dht::ChordRing ring(chord_config);
  util::Rng rng(41);

  // 1. Lookup efficiency.
  util::Running chord_hops;
  std::size_t chord_ok = 0;
  for (std::size_t q = 0; q < kQueries; ++q) {
    const auto key = static_cast<dht::Key>(rng());
    const dht::LookupResult result = ring.lookup(rng.index(kNodes), key);
    if (result.ok) {
      ++chord_ok;
      chord_hops.add(result.hops);
    }
  }

  sim::ExperimentConfig flat;
  flat.seed = 37;
  flat.nodes = kNodes;
  flat.warmup_queries = 2'000;
  flat.measure_queries = 2'000;
  sim::Engine flood_net = sim::make_network(
      flat, [](overlay::NodeId) {
        return std::make_unique<overlay::FloodingPolicy>();
      });
  const sim::TrafficStats flooding =
      sim::run_experiment("flooding", flood_net, flat);

  util::Table efficiency({"system", "success", "msgs/query", "hops"});
  efficiency.row({"Chord (exact keys)",
                  util::Table::pct(static_cast<double>(chord_ok) / kQueries),
                  util::Table::num(chord_hops.mean(), 1),
                  util::Table::num(chord_hops.mean(), 2)});
  efficiency.row({"flat flooding",
                  util::Table::pct(flooding.success_rate()),
                  util::Table::num(flooding.total_messages.mean(), 0),
                  util::Table::num(flooding.hops.mean(), 2)});
  efficiency.print(std::cout);

  // 2. Exact-match limitation: a fraction of queries is keyword-style (the
  // user knows what they want, not its key).  The DHT serves only the exact
  // fraction; unstructured search is content-agnostic.
  const std::vector<double> exact_fractions{1.0, 0.75, 0.5, 0.25};
  util::Table keyword({"exact-key fraction", "Chord success",
                       "unstructured success"});
  std::vector<double> chord_success;
  for (const double exact : exact_fractions) {
    std::size_t ok = 0;
    for (std::size_t q = 0; q < kQueries; ++q) {
      if (!rng.chance(exact)) continue;  // keyword query: DHT cannot resolve
      const dht::LookupResult result =
          ring.lookup(rng.index(kNodes), static_cast<dht::Key>(rng()));
      ok += result.ok ? 1 : 0;
    }
    chord_success.push_back(static_cast<double>(ok) / kQueries);
    keyword.row({util::Table::pct(exact, 0),
                 util::Table::pct(chord_success.back()),
                 util::Table::pct(flooding.success_rate())});
  }
  keyword.print(std::cout);

  // 3. Mass simultaneous failure, before any stabilization.
  util::Table failure({"failed fraction", "Chord lookup failures",
                       "flood giant component"});
  util::CsvWriter csv(aar::bench::out_path("n5_structured.csv"));
  csv.header({"failed_fraction", "chord_failure_rate", "flood_reachable"});
  std::vector<double> chord_failure_rates;
  std::vector<double> flood_reachable_fractions;
  for (const double fraction : {0.25, 0.5, 0.75}) {
    dht::ChordRing wounded(chord_config);
    util::Rng failure_rng(43);
    wounded.fail_random(fraction, failure_rng);
    std::size_t failures = 0;
    std::size_t attempts = 0;
    while (attempts < 1'500) {
      const std::size_t origin = failure_rng.index(kNodes);
      if (!wounded.is_alive(origin)) continue;
      ++attempts;
      if (!wounded.lookup(origin, static_cast<dht::Key>(failure_rng())).ok) {
        ++failures;
      }
    }
    const double failure_rate =
        static_cast<double>(failures) / static_cast<double>(attempts);
    chord_failure_rates.push_back(failure_rate);

    // Unstructured comparison: remove the same fraction of overlay nodes and
    // measure the largest surviving component (flooding reaches exactly it).
    util::Rng topo_rng(37);
    overlay::Graph graph = overlay::make_barabasi_albert(kNodes, 3, topo_rng);
    std::vector<bool> dead(kNodes, false);
    std::vector<overlay::NodeId> order(kNodes);
    for (overlay::NodeId n = 0; n < kNodes; ++n) order[n] = n;
    failure_rng.shuffle(std::span<overlay::NodeId>(order));
    const auto kill = static_cast<std::size_t>(fraction * kNodes);
    for (std::size_t i = 0; i < kill; ++i) dead[order[i]] = true;
    // BFS over live nodes from a live seed.
    overlay::NodeId seed = 0;
    while (dead[seed]) ++seed;
    std::vector<bool> seen(kNodes, false);
    std::vector<overlay::NodeId> stack{seed};
    seen[seed] = true;
    std::size_t reached = 0;
    while (!stack.empty()) {
      const overlay::NodeId node = stack.back();
      stack.pop_back();
      ++reached;
      for (overlay::NodeId next : graph.neighbors(node)) {
        if (!dead[next] && !seen[next]) {
          seen[next] = true;
          stack.push_back(next);
        }
      }
    }
    const double reachable =
        static_cast<double>(reached) / static_cast<double>(kNodes - kill);
    flood_reachable_fractions.push_back(reachable);
    failure.row({util::Table::pct(fraction, 0), util::Table::pct(failure_rate),
                 util::Table::pct(reachable)});
    csv.row({fraction, failure_rate, reachable});
  }
  failure.print(std::cout);
  std::cout << "rows written to out/n5_structured.csv\n";

  const double log_n = std::log2(static_cast<double>(kNodes));
  std::vector<bench::PaperRow> rows{
      {"Chord hops are O(log N)", "efficiently find content",
       chord_hops.mean(), chord_hops.mean() < log_n},
      {"Chord messages << flooding messages", "orders of magnitude",
       chord_hops.mean() / flooding.total_messages.mean(),
       chord_hops.mean() < 0.01 * flooding.total_messages.mean()},
      {"keyword queries break the DHT (50% exact)", "must match exactly",
       chord_success[2], chord_success[2] < 0.6},
      {"mass failure breaks lookups pre-stabilization",
       "network can become disconnected", chord_failure_rates.back(),
       chord_failure_rates.back() > 0.1},
      {"unstructured search outlives Chord at 75% failure",
       "unstructured tolerates churn",
       flood_reachable_fractions.back() - (1.0 - chord_failure_rates.back()),
       flood_reachable_fractions.back() >
           1.0 - chord_failure_rates.back() + 0.2},
      {"giant component keeps most survivors searchable",
       "does not disconnect gracelessly", flood_reachable_fractions.back(),
       flood_reachable_fractions.back() > 0.55},
  };
  return perf.finish(bench::print_comparison(rows));
}
