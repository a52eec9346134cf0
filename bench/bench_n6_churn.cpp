// N6 — behaviour under overlay churn.
//
// "As peer-to-peer networks are usually highly dynamic, this is likely to
// quickly be the case" (§III-B.3, on why Static Ruleset fails) — the same
// dynamic pressure exists in the overlay: peers leave, new peers join with
// different content and interests, and every learned structure goes stale.
// Association routing re-mines its rules from the traffic it keeps seeing;
// a routing index built once does not.  This bench interleaves churn epochs
// with query batches and compares degradation.

#include <iostream>
#include <memory>

#include "bench_common.hpp"
#include "overlay/assoc_policy.hpp"
#include "overlay/fault_experiment.hpp"
#include "overlay/routing_indices.hpp"
#include "sim/experiment.hpp"
#include "util/csv.hpp"

namespace {

using namespace aar;
using namespace aar::overlay;
using namespace aar::sim;

struct ChurnRun {
  std::vector<double> success;   ///< per epoch
  std::vector<double> messages;  ///< per epoch
};

/// Run `epochs` alternating (churn, measure) rounds.
ChurnRun run_with_churn(Engine& network, std::size_t epochs,
                        std::size_t queries_per_epoch, std::size_t churn_count,
                        util::Rng& rng) {
  ChurnRun run;
  for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
    if (epoch > 0) network.churn(churn_count, 3);
    TrafficStats stats;
    run_queries(network, queries_per_epoch, {}, rng, &stats);
    run.success.push_back(stats.success_rate());
    run.messages.push_back(stats.total_messages.mean());
  }
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  // --smoke: reduced-population mode for CI — same structure (churn epochs,
  // fault grid), ~10x less work, acceptance rows informational only (the
  // bands are calibrated for the full populations).
  const bool smoke = bench::parse_smoke(argc, argv, "bench_n6_churn");

  aar::bench::PerfRecord perf("n6_churn");
  bench::print_header("N6", smoke
                                ? "learned routing under overlay churn (smoke)"
                                : "learned routing under overlay churn");

  ExperimentConfig config;
  config.seed = 47;
  config.nodes = smoke ? 300 : 1'000;
  const std::size_t kEpochs = smoke ? 4 : 8;
  const std::size_t kQueriesPerEpoch = smoke ? 300 : 1'500;
  // 10% of peers replaced between epochs — aggressive but Gnutella-era real.
  const std::size_t kChurnPerEpoch = config.nodes / 10;
  const std::size_t kWarmup = smoke ? 800 : 3'000;

  // Association routing: learns continuously.
  Engine assoc_net = make_network(config, [](NodeId) {
    return std::make_unique<AssociationRoutingPolicy>();
  });
  util::Rng assoc_rng(config.seed + 2);
  run_queries(assoc_net, kWarmup, {}, assoc_rng, nullptr);  // warm-up
  const ChurnRun assoc = run_with_churn(assoc_net, kEpochs, kQueriesPerEpoch,
                                        kChurnPerEpoch, assoc_rng);

  // Routing indices: table built once over the initial content placement.
  Engine ri_net = make_network(
      config, [](NodeId) { return std::make_unique<FloodingPolicy>(); });
  auto table = std::make_shared<RoutingIndexTable>(
      ri_net.graph(), local_document_counts(ri_net), 4, 0.5);
  for (NodeId n = 0; n < ri_net.num_nodes(); ++n) {
    ri_net.set_policy(
        n, std::make_unique<RoutingIndicesPolicy>(table, RoutingIndicesConfig{}));
  }
  util::Rng ri_rng(config.seed + 2);
  run_queries(ri_net, kWarmup, {}, ri_rng, nullptr);
  // Churn must not replace RI policies with flooding (the construction
  // factory), or staleness would be masked: re-pin RI after each epoch.
  ChurnRun ri;
  for (std::size_t epoch = 0; epoch < kEpochs; ++epoch) {
    if (epoch > 0) {
      ri_net.churn(kChurnPerEpoch, 3);
      for (NodeId n = 0; n < ri_net.num_nodes(); ++n) {
        ri_net.set_policy(n, std::make_unique<RoutingIndicesPolicy>(
                                 table, RoutingIndicesConfig{}));
      }
    }
    TrafficStats stats;
    run_queries(ri_net, kQueriesPerEpoch, {}, ri_rng, &stats);
    ri.success.push_back(stats.success_rate());
    ri.messages.push_back(stats.total_messages.mean());
  }

  // Flooding under identical churn: the structure-free control.
  Engine flood_net = make_network(
      config, [](NodeId) { return std::make_unique<FloodingPolicy>(); });
  util::Rng flood_rng(config.seed + 2);
  run_queries(flood_net, kWarmup, {}, flood_rng, nullptr);
  const ChurnRun flooding = run_with_churn(flood_net, kEpochs, kQueriesPerEpoch,
                                           kChurnPerEpoch, flood_rng);

  util::Table table_out({"epoch", "assoc success", "assoc msgs", "RI fallback"
                                                                 " msgs",
                         "flood success", "flood msgs"});
  for (std::size_t epoch = 0; epoch < kEpochs; ++epoch) {
    table_out.row({std::to_string(epoch),
                   util::Table::pct(assoc.success[epoch]),
                   util::Table::num(assoc.messages[epoch], 0),
                   util::Table::num(ri.messages[epoch], 0),
                   util::Table::pct(flooding.success[epoch]),
                   util::Table::num(flooding.messages[epoch], 0)});
  }
  table_out.print(std::cout);

  {
    util::CsvWriter csv(aar::bench::out_path("n6_churn.csv"));
    const std::vector<std::string> names{"assoc_success", "assoc_messages",
                                         "ri_success",    "ri_messages",
                                         "flood_success", "flood_messages"};
    const std::vector<std::vector<double>> cols{
        assoc.success, assoc.messages,   ri.success,
        ri.messages,   flooding.success, flooding.messages};
    util::write_series_csv(aar::bench::out_path("n6_churn.csv"), names, cols);
    std::cout << "series written to out/n6_churn.csv\n";
  }

  // --- fault grid: message loss x crashed peers (docs/FAULTS.md) ----------
  // Churn replaces peers; faults degrade the ones that stay.  Sweep the two
  // axes together: per-message drop probability x fraction of peers crashed
  // at start, association policy with the retry ladder enabled.  The
  // (0, 0) cell is the lossless baseline the other cells degrade from.
  // Smoke keeps the first two drop rows — enough for the acceptance row
  // ([2] vs [0] below) while halving the most expensive cells.
  const std::vector<double> kDropGrid =
      smoke ? std::vector<double>{0.0, 0.05}
            : std::vector<double>{0.0, 0.05, 0.2};
  constexpr std::size_t kCrashDenGrid[] = {0, 10};  // 0 = none, 10 = every 10th
  util::Table fault_table({"drop", "crashed", "success", "coverage", "timeouts",
                           "degraded", "retries", "msgs"});
  std::vector<double> grid_drop, grid_crash, grid_success, grid_coverage,
      grid_messages;
  for (const double drop : kDropGrid) {
    for (const std::size_t crash_den : kCrashDenGrid) {
      fault::Scenario scenario;
      scenario.nodes = smoke ? 120 : 400;
      scenario.warmup = smoke ? 200 : 1'200;
      scenario.queries = smoke ? 120 : 700;
      scenario.epochs = 2;
      scenario.churn = 20;
      scenario.policy = "association";
      scenario.timeout = 64;
      scenario.retries = 2;
      scenario.plan.drop = drop;
      if (crash_den != 0) {
        for (std::size_t n = 0; n < scenario.nodes; n += crash_den) {
          scenario.plan.peers.push_back(
              {static_cast<NodeId>(n), fault::PeerState::crashed});
        }
      }
      const FaultRunResult run =
          run_fault_scenario(scenario, config.seed, /*faulted=*/true);
      double coverage = 0.0, messages = 0.0;
      std::uint64_t timeouts = 0, degraded = 0, retries = 0;
      for (const FaultEpochStats& e : run.epochs) {
        coverage += e.avg_coverage();
        messages += e.avg_messages();
        timeouts += e.timeouts;
        degraded += e.degraded_floods;
        retries += e.retries;
      }
      coverage /= static_cast<double>(run.epochs.size());
      messages /= static_cast<double>(run.epochs.size());
      const double success =
          static_cast<double>(run.hits) / static_cast<double>(run.searches);
      fault_table.row(
          {util::Table::num(drop, 2),
           crash_den == 0 ? "0%" : "10%", util::Table::pct(success),
           util::Table::num(coverage, 1), std::to_string(timeouts),
           std::to_string(degraded), std::to_string(retries),
           util::Table::num(messages, 0)});
      grid_drop.push_back(drop);
      grid_crash.push_back(crash_den == 0 ? 0.0 : 0.1);
      grid_success.push_back(success);
      grid_coverage.push_back(coverage);
      grid_messages.push_back(messages);
    }
  }
  std::cout << "\nfault grid (drop rate x crashed peers, association + retry "
               "ladder):\n";
  fault_table.print(std::cout);
  const std::vector<std::string> grid_names{"drop", "crashed", "success",
                                            "coverage", "messages"};
  const std::vector<std::vector<double>> grid_cols{
      grid_drop, grid_crash, grid_success, grid_coverage, grid_messages};
  util::write_series_csv(aar::bench::out_path("n6_fault_grid.csv"), grid_names,
                         grid_cols);
  std::cout << "series written to out/n6_fault_grid.csv\n";

  auto mean_tail = [](const std::vector<double>& v) {
    double sum = 0;
    for (std::size_t i = v.size() / 2; i < v.size(); ++i) sum += v[i];
    return sum / static_cast<double>(v.size() - v.size() / 2);
  };
  auto mean_all = [](const std::vector<double>& v) {
    double sum = 0;
    for (double x : v) sum += x;
    return sum / static_cast<double>(v.size());
  };
  std::vector<bench::PaperRow> rows{
      {"association keeps its traffic advantage under churn",
       "rules re-mined from live traffic",
       mean_tail(assoc.messages) / mean_tail(flooding.messages),
       mean_tail(assoc.messages) < 0.8 * mean_tail(flooding.messages)},
      {"association success unharmed by churn", "flood fallback",
       mean_tail(assoc.success) - mean_tail(flooding.success),
       mean_tail(assoc.success) > mean_tail(flooding.success) - 0.03},
      // Full-horizon means: replace_peer now purges consequents naming the
      // replaced peer, so association pays a re-learning flood tax every
      // churn epoch and the tail alone no longer separates the two.  The
      // stale index's expensive early epochs (before aging empties it) are
      // where its cost shows.
      {"stale routing indices lean on fallback floods",
       "static structures age", mean_all(ri.messages) /
                                    mean_all(assoc.messages),
       mean_all(ri.messages) > mean_all(assoc.messages)},
      // Grid cells in row-major (drop, crash) order: [2] is drop 5%, no
      // crashes; [0] is the lossless baseline.
      {"retry ladder holds success under 5% message loss",
       "bounded retries + flood degradation",
       grid_success[2] - grid_success[0],
       grid_success[2] > grid_success[0] - 0.10},
  };
  const int status = bench::print_comparison(rows);
  if (smoke) {
    // Smoke mode exists to exercise the full code path quickly in CI; the
    // acceptance bands are calibrated for the full populations, so a band
    // miss at reduced scale is reported but not fatal.
    if (status != 0) std::cout << "[smoke: bands informational only]\n";
    return perf.finish(0);
  }
  return perf.finish(status);
}
