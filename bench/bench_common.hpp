#pragma once
// Shared plumbing for the experiment-reproduction benches.
//
// Every bench regenerates one table or figure of the paper (DESIGN.md §4):
// it prints the per-block series or sweep rows, writes a CSV under out/ for
// re-plotting, and finishes with a paper-vs-measured summary table.  Absolute
// equality with the 2006 testbed is not expected — the `band` column records
// the tolerance under which the reproduction is judged.

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/strategy.hpp"
#include "core/trace_simulator.hpp"
#include "obs/registry.hpp"
#include "trace/generator.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

namespace aar::bench {

/// One paper-vs-measured comparison row.
struct PaperRow {
  std::string metric;
  std::string paper;     ///< what the paper reports (verbatim-ish)
  double measured = 0.0;
  bool ok = true;        ///< measured falls in the acceptance band
};

/// `--smoke` (reduced populations for CI) is the only flag the scale benches
/// take; any other argument is a usage error (exit 2).
inline bool parse_smoke(int argc, char** argv, const char* bench) {
  static constexpr std::string_view kSmoke[] = {"smoke"};
  try {
    return util::Cli({argv + 1, static_cast<std::size_t>(argc - 1)}, kSmoke,
                     kSmoke)
        .has("smoke");
  } catch (const util::CliUsageError& error) {
    std::cerr << bench << ": " << error.what()
              << " (only --smoke is accepted)\n";
    std::exit(2);
  }
}

inline void print_header(const std::string& id, const std::string& title) {
  std::cout << "\n==== " << id << ": " << title << " ====\n";
}

inline int print_comparison(const std::vector<PaperRow>& rows) {
  util::Table table({"metric", "paper", "measured", "ok"});
  bool all_ok = true;
  for (const PaperRow& row : rows) {
    table.row({row.metric, row.paper, util::Table::num(row.measured, 3),
               row.ok ? "yes" : "NO"});
    all_ok &= row.ok;
  }
  table.print(std::cout);
  std::cout << (all_ok ? "[reproduced]" : "[DEVIATION — see rows marked NO]")
            << "\n";
  return all_ok ? 0 : 1;
}

/// The standard 7-day-equivalent trace: `blocks`+1 blocks of pairs at the
/// calibrated defaults (block 0 bootstraps, `blocks` are tested).
inline std::vector<trace::QueryReplyPair> standard_trace(
    std::size_t blocks, std::uint64_t seed = 42,
    std::uint32_t block_size = 10'000) {
  trace::TraceConfig config;
  config.seed = seed;
  config.block_size = block_size;
  trace::TraceGenerator generator(config);
  return generator.generate_pairs((blocks + 1) * block_size);
}

/// Path under out/ for a bench artifact, creating out/ if needed so benches
/// work from a fresh checkout or any build dir.
inline std::string out_path(const std::string& file) {
  std::filesystem::create_directories("out");
  return "out/" + file;
}

/// Dump a result's coverage/success series to out/<id>.csv, creating out/
/// if needed so benches work from a fresh checkout or any build dir.
inline void write_result_csv(const std::string& id,
                             const core::SimulationResult& result) {
  const std::vector<std::string> names{"coverage", "success"};
  const std::vector<std::vector<double>> columns{
      {result.coverage.values().begin(), result.coverage.values().end()},
      {result.success.values().begin(), result.success.values().end()}};
  const std::string path = out_path(id + ".csv");
  util::write_series_csv(path, names, columns);
  std::cout << "series written to " << path << "\n";
}

/// Print every `stride`-th block of a coverage/success series.
inline void print_series(const core::SimulationResult& result,
                         std::size_t stride) {
  util::Table table({"block", "coverage", "success"});
  for (std::size_t b = 0; b < result.coverage.size(); b += stride) {
    table.row({std::to_string(b + 1), util::Table::num(result.coverage[b], 3),
               util::Table::num(result.success[b], 3)});
  }
  table.print(std::cout);
}

/// Acceptance helpers.
inline bool within(double measured, double lo, double hi) {
  return measured >= lo && measured <= hi;
}

/// Per-bench perf record: wall time from construction to finish(), optional
/// throughput denominator, named extras, and a full obs registry snapshot
/// (per-block timings, store / overlay counters, peak rule-set size via
/// metrics.gauges["sim.ruleset_size"].max).  finish() writes
/// out/BENCH_<id>.json ("aar.bench.v1", see docs/OBSERVABILITY.md) — the
/// repo's perf trajectory, one file per bench per run.
class PerfRecord {
 public:
  explicit PerfRecord(std::string id)
      : id_(std::move(id)), start_(std::chrono::steady_clock::now()) {}

  /// Pairs (or other work items) processed, for the pairs/sec rate.
  void set_pairs(double pairs) { pairs_ = pairs; }
  /// Attach a named scalar (acceptance ratios, peak sizes, ...).
  void extra(const std::string& key, double value) {
    extras_.emplace_back(key, value);
  }

  /// Write the record and pass `status` through (so benches can keep their
  /// `return print_comparison(rows)` shape).
  int finish(int status) {
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start_)
                            .count();
    if (pairs_ == 0.0) {
      // Default throughput denominator: pairs the trace simulator replayed.
      pairs_ = static_cast<double>(
          obs::Registry::global().counter("sim.pairs_processed").value());
    }
    const std::string path = out_path("BENCH_" + id_ + ".json");
    std::ofstream out(path);
    if (!out) {
      std::cerr << "cannot write perf record to " << path << "\n";
      return status != 0 ? status : 1;
    }
    out << "{\"schema\":\"aar.bench.v1\",\"id\":\"" << id_
        << "\",\"status\":" << status << ",\"wall_seconds\":" << wall
        << ",\"pairs\":" << pairs_
        << ",\"pairs_per_sec\":" << (wall > 0.0 ? pairs_ / wall : 0.0)
        << ",\"extra\":{";
    for (std::size_t i = 0; i < extras_.size(); ++i) {
      if (i != 0) out << ',';
      out << '"' << extras_[i].first << "\":" << extras_[i].second;
    }
    out << "},\"metrics\":";
    obs::Registry::global().write_json(out);
    out << "}\n";
    std::cout << "perf record written to " << path << "\n";
    return status;
  }

 private:
  std::string id_;
  std::chrono::steady_clock::time_point start_;
  double pairs_ = 0.0;
  std::vector<std::pair<std::string, double>> extras_;
};

}  // namespace aar::bench
