// N7 — million-peer simulation throughput on the sharded engine.
//
// The paper's testbed topped out at a few hundred peers; the questions it
// raises about rule staleness and routing quality only get sharper at the
// population sizes Gnutella actually reached.  This bench drives
// aar::sim::Engine (docs/SIMULATION.md) across increasing populations —
// 100k and 1M peers in full mode — with churn between epochs and a fault
// plan (message loss + crashed peers) active throughout, and records
// peers-per-second bands plus a thread-count determinism check.
//
// The bands are hardware-calibrated lower bounds with a wide margin (about
// an order of magnitude below what the 1-core reference host sustains), so
// the gate catches algorithmic regressions — an accidental O(n) scan per
// event, a per-search allocation storm — not machine-to-machine variance.
//
// Usage: bench_n7_scale [--smoke]   (reduced populations for CI)

#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "sim/scale.hpp"
#include "util/csv.hpp"

namespace {

using namespace aar;

sim::ScaleConfig population(std::size_t nodes) {
  sim::ScaleConfig config;
  config.seed = 7;
  config.nodes = nodes;
  config.policy = "association";
  config.ttl = 4;
  config.warmup = 200;
  config.searches = 600;
  config.epochs = 2;
  config.churn = 50;
  config.drop = 0.02;                 // 2% message loss throughout
  config.crashed = nodes / 1'000;     // one peer per thousand starts crashed
  config.threads = 1;
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::parse_smoke(argc, argv, "bench_n7_scale");

  aar::bench::PerfRecord perf("n7_scale");
  bench::print_header("N7", smoke ? "sharded engine scale bands (smoke)"
                                  : "sharded engine scale bands");

  // Bands: minimum peers per wall second, end to end (build + warmup +
  // measured epochs), per population.  Calibrated on the 1-core reference
  // host; see the file comment for the margin policy.
  struct Step {
    std::size_t nodes;
    double min_peers_per_sec;
  };
  // Reference host (1 core): ~28k peers/s at 100k, ~47k peers/s at 1M.
  const std::vector<Step> steps =
      smoke ? std::vector<Step>{{5'000, 200.0}, {20'000, 800.0}}
            : std::vector<Step>{{100'000, 3'000.0}, {1'000'000, 5'000.0}};

  // Determinism gate: the smallest population, serial vs 2 threads — the
  // outcome fingerprint must not depend on the thread count.
  sim::ScaleConfig det = population(steps.front().nodes);
  det.engine_metrics = false;
  const sim::ScaleResult det_serial = sim::run_scale(det);
  det.threads = 2;
  det.shards = 16;
  const sim::ScaleResult det_parallel = sim::run_scale(det);
  const bool deterministic =
      det_serial.outcome_hash == det_parallel.outcome_hash;

  util::Table table({"peers", "searches", "success", "query msgs", "dropped",
                     "churned", "build s", "run s", "peers/s", "searches/s"});
  std::vector<double> col_nodes, col_pps, col_sps, col_success, col_build,
      col_run;
  double total_peers = 0.0;
  std::vector<bench::PaperRow> rows;
  rows.push_back({"outcome fingerprint thread-invariant",
                  "byte-equal replay (docs/SIMULATION.md)",
                  deterministic ? 1.0 : 0.0, deterministic});

  for (const Step& step : steps) {
    const sim::ScaleResult result = sim::run_scale(population(step.nodes));
    total_peers += static_cast<double>(result.nodes);
    table.row({std::to_string(result.nodes), std::to_string(result.searches),
               util::Table::pct(result.success_rate()),
               std::to_string(result.query_messages),
               std::to_string(result.dropped), std::to_string(result.churned),
               util::Table::num(result.build_seconds, 2),
               util::Table::num(result.run_seconds, 2),
               util::Table::num(result.peers_per_second(), 0),
               util::Table::num(result.searches_per_second(), 0)});
    col_nodes.push_back(static_cast<double>(result.nodes));
    col_pps.push_back(result.peers_per_second());
    col_sps.push_back(result.searches_per_second());
    col_success.push_back(result.success_rate());
    col_build.push_back(result.build_seconds);
    col_run.push_back(result.run_seconds);
    perf.extra("peers_per_sec_" + std::to_string(result.nodes),
               result.peers_per_second());
    rows.push_back(
        {std::to_string(step.nodes) + " peers within band (churn + faults)",
         ">= " + std::to_string(static_cast<long>(step.min_peers_per_sec)) +
             " peers/s",
         result.peers_per_second(),
         result.peers_per_second() >= step.min_peers_per_sec &&
             result.searches > 0 && result.hits > 0});
  }
  table.print(std::cout);

  const std::vector<std::string> names{"nodes",   "peers_per_sec",
                                       "searches_per_sec", "success",
                                       "build_seconds",    "run_seconds"};
  const std::vector<std::vector<double>> cols{col_nodes, col_pps,  col_sps,
                                              col_success, col_build, col_run};
  util::write_series_csv(aar::bench::out_path("n7_scale.csv"), names, cols);
  std::cout << "series written to out/n7_scale.csv\n";

  perf.set_pairs(total_peers);  // throughput denominator: peers simulated
  return perf.finish(bench::print_comparison(rows));
}
