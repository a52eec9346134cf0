// aar_sim — command-line front end to the trace simulator.
//
// The modern equivalent of the paper's <500-line PHP simulator: generate
// synthetic captures, replay pair traces (synthetic, imported CSV, or binary
// aartr files streamed out-of-core) through any rule-set maintenance
// strategy, convert between trace formats, and emit per-block series.
//
// Usage:
//   aar_sim generate --pairs N [--seed S] [--block-size B] --out pairs.csv
//   aar_sim run --strategy <static|sliding|lazy|adaptive|incremental>
//               [--trace pairs.{csv,aartr} | --blocks N | --pairs N]
//               [--block-size B] [--min-support T] [--period P] [--history H]
//               [--seed S] [--csv series.csv] [--metrics m.json]
//               [--threads N] [--no-timers]
//   aar_sim compare [--trace pairs.{csv,aartr} | --blocks N | --pairs N]
//               [--block-size B] [--min-support T] [--seed S]
//               [--metrics m.json] [--threads N] [--no-timers]
//   aar_sim convert --in A --out B [--kind queries|replies|pairs] [--chunk N]
//               (direction from extensions: *.csv <-> *.aartr)
//   aar_sim inspect --in trace.aartr
//   aar_sim rules [--trace pairs.{csv,aartr} | --blocks N] [--window N]
//               [--min-support T] [--min-confidence C] [--top K] [--json F]
//   aar_sim faults --scenario F.v1 [--seed S] [--metrics m.json]
//   aar_sim scale [--nodes N] [--policy P] [--searches N] [--epochs N]
//               [--churn N] [--drop R] [--crashed N] [--threads N]
//               [--shards N] [--seed S] [--ttl T] [--warmup N]
//               [--timeout T] [--retries R] [--attach K] [--metrics F]
//
// A `.aartr` trace given to `run`/`compare` is replayed through the
// streaming store::StoreBlockSource, so only one block plus one prefetched
// chunk is ever resident — traces far larger than RAM replay fine.
//
// `rules` mines the most recent --window pairs of a trace through the
// incremental miner (aar::mining) and dumps the resulting rule set as a
// table or JSON, cross-checking the snapshot against a batch
// RuleSet::build of the same window.
//
// `faults` runs an "aar.faults.v1" scenario file (docs/FAULTS.md) through
// the fault-injected overlay twice — once as written, once with faults
// stripped — and prints the per-epoch degradation table plus the FNV-1a
// fingerprint of the faulted outcome stream.  Output is a pure function of
// (scenario, --seed); CI runs it twice and diffs (the determinism gate).
//
// `scale` drives the sharded discrete-event engine (aar::sim, see
// docs/SIMULATION.md) over a large synthetic population with optional churn
// and faults.  Stdout (counts + outcome fingerprint) is a pure function of
// the config minus --threads/--shards; wall-clock timings go to stderr so
// runs diff cleanly.
//
// `run --threads N` replays through the deterministic parallel engine
// (aar::par): results are byte-identical to the serial path for every thread
// count (docs/PARALLEL.md).  `compare --threads N` sweeps the six strategies
// on a thread pool.  `--no-timers` strips wall-clock data from --metrics so
// same-input snapshots compare byte-for-byte.
//
// Exit status: 0 on success, 2 on usage errors — including unknown or
// malformed flags and numbers outside their field's range, which are
// rejected rather than silently ignored or cast down.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/strategy.hpp"
#include "core/trace_simulator.hpp"
#include "fault/scenario.hpp"
#include "mining/incremental_miner.hpp"
#include "overlay/fault_experiment.hpp"
#include "obs/registry.hpp"
#include "sim/experiment.hpp"
#include "sim/scale.hpp"
#include "store/block_source.hpp"
#include "store/reader.hpp"
#include "store/writer.hpp"
#include "trace/database.hpp"
#include "trace/generator.hpp"
#include "trace/io.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/parallel.hpp"
#include "util/table.hpp"

namespace {

using namespace aar;

int usage() {
  std::cerr
      << "usage:\n"
         "  aar_sim generate --pairs N [--seed S] [--block-size B] --out F\n"
         "  aar_sim run --strategy NAME [--trace F | --blocks N | --pairs N]\n"
         "              [--block-size B] [--min-support T] [--period P]\n"
         "              [--history H] [--seed S] [--csv F] [--metrics F]\n"
         "              [--threads N] [--no-timers]\n"
         "  aar_sim compare [--trace F | --blocks N | --pairs N]\n"
         "              [--block-size B] [--min-support T] [--seed S]\n"
         "              [--metrics F] [--threads N] [--no-timers]\n"
         "  aar_sim convert --in A --out B [--kind queries|replies|pairs]\n"
         "              [--chunk N]  (*.csv <-> *.aartr by extension)\n"
         "  aar_sim inspect --in F.aartr\n"
         "  aar_sim rules [--trace F | --blocks N] [--window N]\n"
         "              [--min-support T] [--min-confidence C] [--top K]\n"
         "              [--json F]  ('-' prints JSON to stdout; --window 0\n"
         "              mines the whole trace)\n"
         "  aar_sim faults --scenario F [--seed S] [--metrics F]\n"
         "              (runs an aar.faults.v1 scenario faulted and\n"
         "              lossless; deterministic output incl. outcome hash)\n"
         "  aar_sim scale [--nodes N] [--policy P] [--searches N]\n"
         "              [--epochs N] [--churn N] [--drop R] [--crashed N]\n"
         "              [--threads N] [--shards N] [--seed S] [--ttl T]\n"
         "              [--warmup N] [--timeout T] [--retries R]\n"
         "              [--attach K] [--metrics F]\n"
         "              (sharded discrete-event engine; stdout is the same\n"
         "              for every --threads/--shards, timings on stderr)\n"
         "strategies: static sliding lazy adaptive incremental streaming\n"
         "traces:     *.csv loads in memory; *.aartr streams out-of-core\n"
         "--metrics:  write an aar.metrics.v1 JSON snapshot of the obs\n"
         "            registry ('-' prints console tables instead)\n"
         "--threads:  run: deterministic parallel replay (0 = all cores);\n"
         "            compare: sweep strategies on a thread pool; 0..64\n"
         "--no-timers: exclude wall-clock timers from --metrics output so\n"
         "            same-input snapshots are byte-identical\n";
  return 2;
}

bool has_suffix(const std::string& path, const std::string& suffix) {
  return path.size() >= suffix.size() &&
         path.compare(path.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool is_aartr(const std::string& path) { return has_suffix(path, ".aartr"); }

/// Flags that take no value argument.
constexpr std::string_view kBooleanFlags[] = {"no-timers"};

/// Flags each subcommand accepts; any other flag is a usage error.
const util::CliCommands kCommands = {
    {"generate", {"pairs", "seed", "block-size", "out"}},
    {"run",
     {"strategy", "trace", "blocks", "pairs", "block-size", "min-support",
      "period", "history", "seed", "csv", "metrics", "threads", "no-timers"}},
    {"compare",
     {"trace", "blocks", "pairs", "block-size", "min-support", "period",
      "history", "seed", "metrics", "threads", "no-timers"}},
    {"convert", {"in", "out", "kind", "chunk"}},
    {"inspect", {"in"}},
    {"rules",
     {"trace", "blocks", "pairs", "seed", "block-size", "window",
      "min-support", "min-confidence", "top", "json"}},
    {"faults", {"scenario", "seed", "metrics"}},
    {"scale",
     {"nodes", "policy", "searches", "epochs", "churn", "drop", "crashed",
      "threads", "shards", "seed", "ttl", "warmup", "timeout", "retries",
      "attach", "metrics"}},
};

/// Most --threads accepted (0 means all cores), the cap aar_node has too: a
/// larger count is refused before any thread starts.
constexpr std::size_t kMaxThreads = 64;

std::vector<trace::QueryReplyPair> load_or_generate(const util::Cli& options) {
  if (options.has("trace")) {
    const std::string path = options.get("trace", "");
    std::cout << "loading pair trace from " << path << "\n";
    if (is_aartr(path)) return store::Reader(path).read_all_pairs();
    return trace::read_pairs_csv(path);
  }
  trace::TraceConfig config;
  config.seed = options.num<std::uint64_t>("seed", 42);
  config.block_size = options.num<std::uint32_t>("block-size", 10'000, 1);
  // --pairs is an exact pair target; --blocks counts test blocks (one extra
  // bootstrap block is generated on top).
  if (options.has("pairs")) {
    trace::TraceGenerator generator(config);
    return generator.generate_pairs(options.num<std::size_t>("pairs", 0));
  }
  const auto blocks = options.num<std::size_t>("blocks", 80);
  trace::TraceGenerator generator(config);
  return generator.generate_pairs((blocks + 1) * config.block_size);
}

/// The strategy flags of `run` and `compare`, range-checked up front.
struct StrategyParams {
  std::uint32_t min_support;
  std::uint32_t period;
  std::size_t history;
};

StrategyParams strategy_params(const util::Cli& options) {
  return {.min_support = options.num<std::uint32_t>("min-support", 10, 1),
          .period = options.num<std::uint32_t>("period", 10, 1),
          .history = options.num<std::size_t>("history", 10, 1)};
}

std::unique_ptr<core::Strategy> make_strategy(const std::string& name,
                                              const StrategyParams& params) {
  const std::uint32_t min_support = params.min_support;
  if (name == "static") return std::make_unique<core::StaticRuleset>(min_support);
  if (name == "sliding") return std::make_unique<core::SlidingWindow>(min_support);
  if (name == "lazy") {
    return std::make_unique<core::LazySlidingWindow>(min_support, params.period);
  }
  if (name == "adaptive") {
    return std::make_unique<core::AdaptiveSlidingWindow>(min_support,
                                                         params.history);
  }
  if (name == "incremental") {
    return std::make_unique<core::IncrementalRuleset>(min_support);
  }
  if (name == "streaming") {
    return std::make_unique<core::StreamingRuleset>(min_support);
  }
  return nullptr;
}

/// Honor --metrics: write the obs registry (plus any per-block series) as an
/// aar.metrics.v1 JSON snapshot, or print console tables for "-".
/// With --no-timers the snapshot excludes timers — wall-clock is the one
/// non-deterministic thing in it — which is what the CI thread-count
/// determinism gate byte-compares (docs/PARALLEL.md).
int write_metrics(const util::Cli& options,
                  std::span<const obs::NamedSeries> series = {}) {
  if (!options.has("metrics")) return 0;
  const std::string path = options.get("metrics", "");
  if (path == "-") {
    obs::Registry::global().print_table(std::cout);
    return 0;
  }
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write metrics to " << path << "\n";
    return 1;
  }
  obs::Registry::global().write_json(out, series,
                                     /*include_timers=*/!options.has("no-timers"));
  std::cout << "metrics written to " << path << "\n";
  return 0;
}

int cmd_generate(const util::Cli& options) {
  if (!options.has("pairs") || !options.has("out")) return usage();
  trace::TraceConfig config;
  config.seed = options.num<std::uint64_t>("seed", 42);
  config.block_size = options.num<std::uint32_t>("block-size", 10'000, 1);
  const auto pair_target = options.num<std::size_t>("pairs", 0);
  trace::TraceGenerator generator(config);
  trace::Database db;
  db.import(generator, pair_target);
  db.join();
  const std::string out = options.get("out", "pairs.csv");
  if (is_aartr(out)) {
    store::write_pairs_file(out, db.pairs());
  } else {
    trace::write_pairs_csv(out, db);
  }
  std::cout << "wrote " << db.pairs().size() << " pairs ("
            << generator.queries_generated() << " queries, "
            << generator.replies_generated() << " replies) to " << out << "\n";
  return 0;
}

int cmd_run(const util::Cli& options) {
  const std::string name = options.get("strategy", "");
  std::unique_ptr<core::Strategy> strategy =
      make_strategy(name, strategy_params(options));
  if (strategy == nullptr) return usage();
  const std::size_t block_size =
      options.num<std::uint32_t>("block-size", 10'000, 1);
  // --threads routes the replay through the deterministic parallel engine;
  // its results are byte-identical to the serial path for any thread count
  // (docs/PARALLEL.md), so everything below is oblivious to the choice.
  const bool parallel = options.has("threads");
  core::ParallelConfig par_config;
  par_config.threads = options.num<std::size_t>("threads", 0, 0, kMaxThreads);
  core::TraceSimulator simulator(*strategy, block_size);
  core::SimulationResult result;
  if (options.has("trace") && is_aartr(options.get("trace", ""))) {
    // Out-of-core path: decode chunk-by-chunk with prefetch, never holding
    // more than one block plus one chunk in memory.
    const std::string path = options.get("trace", "");
    const store::Reader reader(path);
    if (reader.num_records() < 2 * block_size) {
      std::cerr << "trace too short: " << reader.num_records()
                << " pairs for block size " << block_size << "\n";
      return 2;
    }
    store::StoreBlockSource source(reader);
    std::cout << "streaming " << reader.num_records() << " pairs from " << path
              << " (" << reader.num_chunks() << " chunks)\n";
    result = parallel ? simulator.run_parallel(source, par_config)
                      : simulator.run(source);
  } else {
    const auto pairs = load_or_generate(options);
    if (pairs.size() < 2 * block_size) {
      std::cerr << "trace too short: " << pairs.size()
                << " pairs for block size " << block_size << "\n";
      return 2;
    }
    result = parallel ? simulator.run_parallel(pairs, par_config)
                      : simulator.run(pairs);
  }
  std::cout << result.to_string() << "\n";
  util::Table table({"block", "coverage", "success"});
  const std::size_t stride = std::max<std::size_t>(1, result.coverage.size() / 20);
  for (std::size_t b = 0; b < result.coverage.size(); b += stride) {
    table.row({std::to_string(b + 1), util::Table::num(result.coverage[b], 3),
               util::Table::num(result.success[b], 3)});
  }
  table.print(std::cout);
  if (options.has("csv")) {
    const std::vector<std::string> names{"coverage", "success", "eval_seconds"};
    const std::vector<std::vector<double>> columns{
        {result.coverage.values().begin(), result.coverage.values().end()},
        {result.success.values().begin(), result.success.values().end()},
        {result.eval_seconds.values().begin(),
         result.eval_seconds.values().end()}};
    util::write_series_csv(options.get("csv", ""), names, columns);
    std::cout << "series written to " << options.get("csv", "") << "\n";
  }
  std::vector<obs::NamedSeries> series{
      {"coverage",
       {result.coverage.values().begin(), result.coverage.values().end()}},
      {"success",
       {result.success.values().begin(), result.success.values().end()}}};
  if (!options.has("no-timers")) {
    // The per-block timing series is wall-clock, exactly like the registry
    // timers --no-timers strips, so the two are excluded together.
    series.push_back({"eval_seconds",
                      {result.eval_seconds.values().begin(),
                       result.eval_seconds.values().end()}});
  }
  return write_metrics(options, series);
}

int cmd_compare(const util::Cli& options) {
  const StrategyParams params = strategy_params(options);
  const std::size_t block_size =
      options.num<std::uint32_t>("block-size", 10'000, 1);
  const bool streamed =
      options.has("trace") && is_aartr(options.get("trace", ""));
  std::unique_ptr<store::Reader> reader;
  std::vector<trace::QueryReplyPair> pairs;
  if (streamed) {
    reader = std::make_unique<store::Reader>(options.get("trace", ""));
    std::cout << "streaming " << reader->num_records() << " pairs from "
              << reader->path() << " per strategy\n";
  } else {
    pairs = load_or_generate(options);
  }
  const std::vector<std::string> names{"static",   "sliding",     "lazy",
                                       "adaptive", "incremental", "streaming"};
  std::vector<core::SimulationResult> results(names.size());
  auto sweep_one = [&](std::size_t i) {
    std::unique_ptr<core::Strategy> strategy = make_strategy(names[i], params);
    if (streamed) {
      store::StoreBlockSource source(*reader);  // fresh pass over the file
      results[i] = core::run_trace_simulation(*strategy, source, block_size);
    } else {
      results[i] = core::run_trace_simulation(*strategy, pairs, block_size);
    }
  };
  if (options.has("threads")) {
    // Sweep-level parallelism: the strategies are independent replays over a
    // shared immutable trace, so they run as pool tasks.  Results are
    // collected per slot and printed in the fixed strategy order, keeping
    // stdout identical to the sequential sweep.  (The store::Reader is safe
    // for concurrent passes — every read is a positioned pread.)
    util::ThreadPool pool(
        options.num<std::size_t>("threads", 0, 0, kMaxThreads));
    for (std::size_t i = 0; i < names.size(); ++i) {
      pool.submit([&sweep_one, i] { sweep_one(i); });
    }
    pool.wait();
  } else {
    for (std::size_t i = 0; i < names.size(); ++i) sweep_one(i);
  }
  util::Table table({"strategy", "avg coverage", "avg success", "rule sets",
                     "blocks/regen"});
  for (const core::SimulationResult& result : results) {
    table.row({result.strategy, util::Table::num(result.avg_coverage(), 3),
               util::Table::num(result.avg_success(), 3),
               std::to_string(result.rulesets_generated),
               util::Table::num(result.blocks_per_generation(), 2)});
  }
  table.print(std::cout);
  return write_metrics(options);
}

int cmd_convert(const util::Cli& options) {
  if (!options.has("in") || !options.has("out")) return usage();
  const std::string in = options.get("in", "");
  const std::string out = options.get("out", "");
  const std::string kind = options.get("kind", "pairs");
  const auto chunk =
      options.num<std::uint32_t>("chunk", store::kDefaultChunkRecords, 1);

  if (has_suffix(in, ".csv") && is_aartr(out)) {
    std::size_t records = 0;
    if (kind == "pairs") {
      const auto pairs = trace::read_pairs_csv(in);
      store::write_pairs_file(out, pairs, chunk);
      records = pairs.size();
    } else if (kind == "queries") {
      trace::Database db;
      records = trace::read_queries_csv(in, db);
      store::write_queries_file(out, db.queries(), chunk);
    } else if (kind == "replies") {
      trace::Database db;
      records = trace::read_replies_csv(in, db);
      store::write_replies_file(out, db.replies(), chunk);
    } else {
      return usage();
    }
    std::cout << "wrote " << records << " " << kind << " to " << out << "\n";
    return 0;
  }
  if (is_aartr(in) && has_suffix(out, ".csv")) {
    const store::Reader reader(in);
    trace::Database db;
    reader.materialize(db);
    switch (reader.kind()) {
      case store::StreamKind::queries: trace::write_queries_csv(out, db); break;
      case store::StreamKind::replies: trace::write_replies_csv(out, db); break;
      case store::StreamKind::pairs: trace::write_pairs_csv(out, db); break;
    }
    std::cout << "wrote " << reader.num_records() << " "
              << store::to_string(reader.kind()) << " to " << out << "\n";
    return 0;
  }
  std::cerr << "convert: need *.csv -> *.aartr or *.aartr -> *.csv\n";
  return 2;
}

int cmd_inspect(const util::Cli& options) {
  if (!options.has("in")) return usage();
  const store::Reader reader(options.get("in", ""));
  const double bytes_per_record =
      reader.num_records() == 0
          ? 0.0
          : static_cast<double>(reader.file_bytes()) /
                static_cast<double>(reader.num_records());
  util::Table table({"field", "value"});
  table.row({"path", reader.path()});
  table.row({"kind", store::to_string(reader.kind())});
  table.row({"format version", std::to_string(store::kFormatVersion)});
  table.row({"records", std::to_string(reader.num_records())});
  table.row({"chunks", std::to_string(reader.num_chunks())});
  table.row({"chunk capacity", std::to_string(reader.chunk_capacity())});
  table.row({"file bytes", std::to_string(reader.file_bytes())});
  table.row({"bytes/record", util::Table::num(bytes_per_record, 2)});
  table.print(std::cout);
  return 0;
}

/// One flattened rule row for dumping: confidence is support over ALL pairs
/// the antecedent sourced in the mined window (the build()/miner pruning
/// denominator), recomputed here from the window itself.
struct RuleRow {
  trace::HostId antecedent = 0;
  trace::HostId consequent = 0;
  std::uint32_t support = 0;
  double confidence = 0.0;
};

int cmd_rules(const util::Cli& options) {
  const auto pairs = load_or_generate(options);
  const auto window = options.num<std::size_t>("window", 10'000);
  const auto min_support = options.num<std::uint32_t>("min-support", 10, 1);
  const double min_confidence = options.fraction("min-confidence", 0.0);
  const auto top = options.num<std::size_t>("top", 0);

  // Mine the most recent --window pairs (0 = the whole trace) through the
  // incremental engine, exactly as a live node would hold them.
  const std::size_t mined =
      window == 0 ? pairs.size() : std::min(window, pairs.size());
  const std::span<const trace::QueryReplyPair> live =
      std::span(pairs).subspan(pairs.size() - mined, mined);
  mining::IncrementalRuleMiner miner({.window = 0,
                                      .min_support = min_support,
                                      .min_confidence = min_confidence});
  miner.add(live);
  const core::RuleSet& rules = miner.snapshot();

  // Cross-check: the snapshot must be exactly the batch build of the same
  // window — the differential guarantee the mining layer makes.
  const core::RuleSet batch =
      core::RuleSet::build(live, min_support, min_confidence);
  if (!(rules == batch)) {
    std::cerr << "MINER DIVERGENCE: incremental snapshot differs from batch "
                 "RuleSet::build over the same window\n";
    return 1;
  }

  // Confidence denominators: every pair the source emitted, pruned or not.
  std::unordered_map<trace::HostId, std::uint32_t> totals;
  for (const trace::QueryReplyPair& pair : live) ++totals[pair.source_host];

  std::vector<RuleRow> listed;
  listed.reserve(rules.num_rules());
  rules.for_each([&](trace::HostId antecedent,
                     std::span<const core::Consequent> consequents) {
    const std::size_t keep =
        top == 0 ? consequents.size() : std::min(top, consequents.size());
    for (std::size_t i = 0; i < keep; ++i) {
      listed.push_back(
          {antecedent, consequents[i].neighbor, consequents[i].support,
           static_cast<double>(consequents[i].support) /
               static_cast<double>(totals.at(antecedent))});
    }
  });

  if (options.has("json")) {
    const std::string path = options.get("json", "");
    std::ofstream file;
    if (path != "-") {
      file.open(path);
      if (!file) {
        std::cerr << "cannot write rules to " << path << "\n";
        return 1;
      }
    }
    std::ostream& out = path == "-" ? std::cout : file;
    out << "{\"schema\":\"aar.rules.v1\",\"pairs\":" << mined
        << ",\"min_support\":" << min_support
        << ",\"min_confidence\":" << min_confidence
        << ",\"num_antecedents\":" << rules.num_antecedents()
        << ",\"num_rules\":" << rules.num_rules() << ",\"rules\":[";
    for (std::size_t i = 0; i < listed.size(); ++i) {
      if (i != 0) out << ',';
      out << "{\"antecedent\":" << listed[i].antecedent
          << ",\"consequent\":" << listed[i].consequent
          << ",\"support\":" << listed[i].support
          << ",\"confidence\":" << listed[i].confidence << '}';
    }
    out << "]}\n";
    if (path != "-") std::cout << "rules written to " << path << "\n";
    return 0;
  }

  util::Table table({"antecedent", "consequent", "support", "confidence"});
  for (const RuleRow& row : listed) {
    table.row({std::to_string(row.antecedent), std::to_string(row.consequent),
               std::to_string(row.support), util::Table::num(row.confidence, 3)});
  }
  table.print(std::cout);
  std::cout << rules.num_rules() << " rules over " << rules.num_antecedents()
            << " antecedents mined from " << mined
            << " pairs (snapshot identical to batch build)\n";
  return 0;
}

int cmd_faults(const util::Cli& options) {
  if (!options.has("scenario")) return usage();
  const fault::Scenario scenario =
      fault::load_scenario(options.get("scenario", ""));
  const auto seed = options.num<std::uint64_t>("seed", 7);

  std::cout << "scenario: " << options.get("scenario", "") << " seed: " << seed
            << " policy: " << scenario.policy << " nodes: " << scenario.nodes
            << " epochs: " << scenario.epochs << "\n";
  const overlay::FaultRunResult faulted =
      sim::run_fault_scenario(scenario, seed, /*faulted=*/true);
  const overlay::FaultRunResult lossless =
      sim::run_fault_scenario(scenario, seed, /*faulted=*/false);

  // Per-epoch degradation: how far success and coverage fall from the
  // lossless baseline under the injected fault regime.
  util::Table table({"epoch", "success", "lossless", "delta", "coverage",
                     "timeouts", "degraded", "retries", "dropped", "msgs"});
  for (std::size_t e = 0; e < faulted.epochs.size(); ++e) {
    const overlay::FaultEpochStats& f = faulted.epochs[e];
    const overlay::FaultEpochStats& l = lossless.epochs[e];
    table.row({std::to_string(e + 1), util::Table::num(f.success_rate(), 3),
               util::Table::num(l.success_rate(), 3),
               util::Table::num(f.success_rate() - l.success_rate(), 3),
               util::Table::num(f.avg_coverage(), 1),
               std::to_string(f.timeouts), std::to_string(f.degraded_floods),
               std::to_string(f.retries), std::to_string(f.dropped),
               util::Table::num(f.avg_messages(), 1)});
  }
  table.print(std::cout);

  const double overall_f =
      faulted.searches == 0 ? 0.0
                            : static_cast<double>(faulted.hits) /
                                  static_cast<double>(faulted.searches);
  const double overall_l =
      lossless.searches == 0 ? 0.0
                             : static_cast<double>(lossless.hits) /
                                   static_cast<double>(lossless.searches);
  std::cout << "overall success: " << util::Table::num(overall_f, 4)
            << " (lossless " << util::Table::num(overall_l, 4) << ")\n";

  // Hex fingerprints of the canonical outcome streams: the CI determinism
  // gate runs this command twice and requires identical stdout.
  char buffer[2 * sizeof(std::uint64_t) + 1];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(faulted.outcome_hash));
  std::cout << "outcome-hash: 0x" << buffer << "\n";
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(lossless.outcome_hash));
  std::cout << "lossless-hash: 0x" << buffer << "\n";

  if (options.has("metrics")) {
    const std::string path = options.get("metrics", "");
    if (path == "-") {
      obs::Registry::global().print_table(std::cout);
      return 0;
    }
    std::ofstream out(path);
    if (!out) {
      std::cerr << "cannot write metrics to " << path << "\n";
      return 1;
    }
    // Timers are wall-clock — the one non-deterministic snapshot field —
    // so the faults command always excludes them.  The notice goes to
    // stderr so stdout stays byte-identical across same-seed runs even
    // when the metrics path differs (the CI determinism gate diffs it).
    obs::Registry::global().write_json(out, {}, /*include_timers=*/false);
    std::cerr << "metrics written to " << path << "\n";
  }
  return 0;
}

int cmd_scale(const util::Cli& options) {
  sim::ScaleConfig config;
  config.seed = options.num<std::uint64_t>("seed", 7);
  config.nodes = options.num<std::size_t>("nodes", 100'000);
  config.attach = options.num<std::size_t>("attach", 3);
  config.policy = options.get("policy", "association");
  config.ttl = options.num<std::uint32_t>("ttl", 4);
  config.warmup = options.num<std::size_t>("warmup", 500);
  config.searches = options.num<std::size_t>("searches", 1'500);
  config.epochs = options.num<std::size_t>("epochs", 2);
  config.churn = options.num<std::size_t>("churn", 50);
  config.timeout = options.num<std::uint32_t>("timeout", 0);
  config.retries = options.num<std::uint32_t>("retries", 0);
  config.drop = options.fraction("drop", 0.0);
  config.crashed = options.num<std::size_t>("crashed", 0);
  config.threads = options.num<std::size_t>("threads", 1, 0, kMaxThreads);
  config.shards = options.num<std::size_t>("shards", 0);
  if (config.nodes < 2 || config.epochs == 0) {
    std::cerr << "scale: need --nodes >= 2 and --epochs >= 1\n";
    return 2;
  }
  if (config.attach == 0 || config.attach >= config.nodes) {
    std::cerr << "scale: need 1 <= --attach < --nodes\n";
    return 2;
  }

  const sim::ScaleResult result = sim::run_scale(config);

  // Everything on stdout is a pure function of the config minus
  // --threads/--shards — the CI determinism gate diffs it across thread
  // counts.  Wall-clock throughput goes to stderr.
  util::Table table({"field", "value"});
  table.row({"policy", config.policy});
  table.row({"nodes", std::to_string(result.nodes)});
  table.row({"searches", std::to_string(result.searches)});
  table.row({"hits", std::to_string(result.hits)});
  table.row({"timeouts", std::to_string(result.timeouts)});
  table.row({"success", util::Table::num(result.success_rate(), 4)});
  table.row({"query messages", std::to_string(result.query_messages)});
  table.row({"reply messages", std::to_string(result.reply_messages)});
  table.row({"probe messages", std::to_string(result.probe_messages)});
  table.row({"dropped", std::to_string(result.dropped)});
  table.row({"nodes reached", std::to_string(result.nodes_reached)});
  table.row({"churned", std::to_string(result.churned)});
  table.print(std::cout);
  char buffer[2 * sizeof(std::uint64_t) + 1];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(result.outcome_hash));
  std::cout << "outcome-hash: 0x" << buffer << "\n";

  std::cerr << "build " << result.build_seconds << "s, warmup "
            << result.warmup_seconds << "s, run " << result.run_seconds
            << "s; " << result.peers_per_second() << " peers/s, "
            << result.searches_per_second() << " searches/s\n";

  if (options.has("metrics")) {
    const std::string path = options.get("metrics", "");
    if (path == "-") {
      obs::Registry::global().print_table(std::cout);
      return 0;
    }
    std::ofstream out(path);
    if (!out) {
      std::cerr << "cannot write metrics to " << path << "\n";
      return 1;
    }
    obs::Registry::global().write_json(out, {}, /*include_timers=*/false);
    std::cerr << "metrics written to " << path << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::Cli options =
        util::Cli::command_line(argc, argv, kCommands, kBooleanFlags);
    const std::string& command = options.command();
    if (command == "generate") return cmd_generate(options);
    if (command == "run") return cmd_run(options);
    if (command == "compare") return cmd_compare(options);
    if (command == "convert") return cmd_convert(options);
    if (command == "inspect") return cmd_inspect(options);
    if (command == "rules") return cmd_rules(options);
    if (command == "faults") return cmd_faults(options);
    if (command == "scale") return cmd_scale(options);
  } catch (const util::CliUsageError& error) {
    std::cerr << "aar_sim: " << error.what() << "\n";
    return usage();
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
  return usage();
}
