// N4 — super-peer baseline (paper Section II, reference [14]).
//
// "Although this approach has the benefit of reducing the number of hops
// required for queries, it can still suffer from the effects of flooding on
// larger systems."  Both halves measured: hop counts vs the flat policies,
// and how super-peer flood traffic scales as the network grows.

#include <iostream>
#include <memory>

#include "bench_common.hpp"
#include "overlay/assoc_policy.hpp"
#include "overlay/superpeer.hpp"
#include "sim/experiment.hpp"
#include "util/csv.hpp"

namespace {

struct SuperPeerStats {
  double success = 0.0;
  double messages = 0.0;
  double hops = 0.0;
  double local_hit_rate = 0.0;
};

SuperPeerStats run_superpeer(const aar::overlay::SuperPeerConfig& config,
                             std::size_t queries) {
  using namespace aar;
  overlay::SuperPeerNetwork net(config);
  util::Rng rng(config.seed + 7);
  util::Running messages;
  util::Running hops;
  std::size_t hits = 0;
  std::size_t local_hits = 0;
  for (std::size_t q = 0; q < queries; ++q) {
    const std::size_t leaf = rng.index(net.num_leaves());
    const overlay::SuperPeerOutcome outcome =
        net.search(leaf, net.sample_target(leaf));
    messages.add(static_cast<double>(outcome.query_messages +
                                     outcome.reply_messages));
    if (outcome.hit) {
      ++hits;
      hops.add(outcome.hops);
      if (outcome.local_hit) ++local_hits;
    }
  }
  SuperPeerStats stats;
  stats.success = static_cast<double>(hits) / static_cast<double>(queries);
  stats.messages = messages.mean();
  stats.hops = hops.mean();
  stats.local_hit_rate =
      hits ? static_cast<double>(local_hits) / static_cast<double>(hits) : 0.0;
  return stats;
}

}  // namespace

int main() {
  aar::bench::PerfRecord perf("n4_superpeer");
  using namespace aar;
  using namespace aar::overlay;
  using namespace aar::sim;
  bench::print_header("N4", "super-peer network vs flat policies (§II, [14])");

  // Same scale as N1's flat network: 2,000 peers.
  SuperPeerConfig sp;
  sp.seed = 33;
  sp.leaves = 2'000;
  sp.super_peers = 64;
  constexpr std::size_t kQueries = 4'000;
  const SuperPeerStats superpeer = run_superpeer(sp, kQueries);

  ExperimentConfig flat;
  flat.seed = 33;
  flat.nodes = 2'000;
  flat.warmup_queries = 4'000;
  flat.measure_queries = kQueries;
  Engine flood_net = make_network(
      flat, [](NodeId) { return std::make_unique<FloodingPolicy>(); });
  const TrafficStats flooding = run_experiment("flooding", flood_net, flat);
  Engine assoc_net = make_network(flat, [](NodeId) {
    return std::make_unique<AssociationRoutingPolicy>();
  });
  const TrafficStats assoc = run_experiment("association", assoc_net, flat);

  util::Table table({"system", "success", "msgs/query", "hops"});
  table.row({"flat flooding (TTL 7)", util::Table::pct(flooding.success_rate()),
             util::Table::num(flooding.total_messages.mean(), 0),
             util::Table::num(flooding.hops.mean(), 2)});
  table.row({"flat association", util::Table::pct(assoc.success_rate()),
             util::Table::num(assoc.total_messages.mean(), 0),
             util::Table::num(assoc.hops.mean(), 2)});
  table.row({"super-peer (64 SPs)", util::Table::pct(superpeer.success),
             util::Table::num(superpeer.messages, 0),
             util::Table::num(superpeer.hops, 2)});
  table.print(std::cout);
  std::cout << "super-peer local-index hit rate: "
            << util::Table::pct(superpeer.local_hit_rate, 1) << "\n";

  // Scaling: super-peer flood traffic grows with the super-peer tier.
  util::Table scaling({"leaves", "super peers", "msgs/query"});
  util::CsvWriter csv(aar::bench::out_path("n4_superpeer.csv"));
  csv.header({"leaves", "super_peers", "messages"});
  std::vector<double> scaled_messages;
  for (const std::size_t scale : {1u, 2u, 4u, 8u}) {
    SuperPeerConfig grown = sp;
    grown.leaves = 1'000 * scale;
    grown.super_peers = 32 * scale;
    const SuperPeerStats stats = run_superpeer(grown, 2'000);
    scaled_messages.push_back(stats.messages);
    scaling.row({std::to_string(grown.leaves),
                 std::to_string(grown.super_peers),
                 util::Table::num(stats.messages, 0)});
    csv.row({static_cast<double>(grown.leaves),
             static_cast<double>(grown.super_peers), stats.messages});
  }
  scaling.print(std::cout);
  std::cout << "rows written to out/n4_superpeer.csv\n";

  std::vector<bench::PaperRow> rows{
      {"super-peer reduces hops vs flat flooding", "benefit of reducing hops",
       flooding.hops.mean() - superpeer.hops, superpeer.hops <
                                                  flooding.hops.mean() + 0.5},
      {"super-peer traffic far below flat flooding", "indices absorb queries",
       superpeer.messages / flooding.total_messages.mean(),
       superpeer.messages < 0.2 * flooding.total_messages.mean()},
      {"but flood cost grows with system size", "still suffers ... on larger"
                                                " systems",
       scaled_messages.back() / scaled_messages.front(),
       scaled_messages.back() > 2.0 * scaled_messages.front()},
      {"success comparable to flat search", "same content found",
       superpeer.success - flooding.success_rate(),
       superpeer.success > flooding.success_rate() - 0.05},
  };
  return perf.finish(bench::print_comparison(rows));
}
