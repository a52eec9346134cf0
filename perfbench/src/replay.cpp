// trace-replay: the paper's experiment.  Set-up generates the calibrated
// 365+1-block trace (10k-pair blocks) and writes it as aartr; the timed part
// streams it from disk (store::StoreBlockSource) through all six strategies
// of `aar_sim compare`, each with TraceSimulator::run_parallel at 2 threads.
// Every timed result must equal a serial in-memory reference computed
// outside the timed region: the coverage/success series and the final
// RuleSet bytes.

#include "workloads.hpp"

#include <filesystem>
#include <memory>
#include <sstream>

#include "core/forwarder.hpp"
#include "core/strategy.hpp"
#include "core/trace_simulator.hpp"
#include "store/block_source.hpp"
#include "store/reader.hpp"
#include "store/writer.hpp"
#include "trace/generator.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kBlock = 10'000;
constexpr std::size_t kBlocks = 365;
constexpr std::uint32_t kMinSupport = 10;  // aar_sim compare's default
const char* const kStrategies[] = {"static",   "sliding",     "lazy",
                                   "adaptive", "incremental", "streaming"};

std::unique_ptr<aar::core::Strategy> make_strategy(const std::string& name) {
  using namespace aar::core;
  if (name == "static") return std::make_unique<StaticRuleset>(kMinSupport);
  if (name == "sliding") return std::make_unique<SlidingWindow>(kMinSupport);
  if (name == "lazy") return std::make_unique<LazySlidingWindow>(kMinSupport, 10);
  if (name == "adaptive") {
    return std::make_unique<AdaptiveSlidingWindow>(kMinSupport, 10);
  }
  if (name == "incremental") return std::make_unique<IncrementalRuleset>(kMinSupport);
  return std::make_unique<StreamingRuleset>(kMinSupport);
}

std::vector<aar::trace::QueryReplyPair> generate(std::uint64_t seed,
                                                 std::size_t blocks) {
  aar::trace::TraceConfig config;
  config.seed = seed;
  config.block_size = kBlock;
  aar::trace::TraceGenerator generator(config);
  return generator.generate_pairs((blocks + 1) * kBlock);
}

/// The replay's deterministic output: series, generation count, rule bytes.
std::string fingerprint(const aar::core::SimulationResult& result,
                        const aar::core::Strategy& strategy) {
  std::ostringstream os;
  os.precision(17);
  os << result.strategy << '|' << result.rulesets_generated << '|'
     << result.blocks_tested << '\n';
  for (const double v : result.coverage.values()) os << v << ',';
  os << '\n';
  for (const double v : result.success.values()) os << v << ',';
  os << '\n';
  strategy.current_ruleset().save(os);
  return os.str();
}

}  // namespace

void run_replay(const RunArgs& args, Outcome& out) {
  const std::string path = args.work_dir + "/trace.aartr";
  std::vector<double> setups;
  std::vector<aar::trace::QueryReplyPair> pairs;
  for (int i = 0; i < 3; ++i) {
    const auto start = Clock::now();
    pairs = generate(args.seed, kBlocks);
    aar::store::write_pairs_file(path, pairs);
    setups.push_back(seconds_since(start));
  }

  std::vector<std::string> reference;
  for (const char* name : kStrategies) {
    auto strategy = make_strategy(name);
    const auto result = aar::core::run_trace_simulation(*strategy, pairs, kBlock);
    reference.push_back(fingerprint(result, *strategy));
  }
  const std::size_t records = pairs.size();
  pairs = {};

  const aar::store::Reader reader(path);
  aar::core::ParallelConfig par;
  par.threads = 2;
  std::vector<double> rates;
  std::vector<double> pass_p50_us;
  std::vector<double> pass_p99_us;
  std::size_t block_samples = 0;
  double success = 0.0;
  double regenerations = 0.0;
  double coverage = 0.0;
  const auto start = Clock::now();
  do {
    const auto pass_start = Clock::now();
    std::vector<double> block_us;
    success = 0.0;
    regenerations = 0.0;
    coverage = 0.0;
    for (std::size_t i = 0; i < std::size(kStrategies); ++i) {
      auto strategy = make_strategy(kStrategies[i]);
      aar::store::StoreBlockSource source(reader);
      aar::core::TraceSimulator simulator(*strategy, kBlock);
      const auto result = simulator.run_parallel(source, par);
      out.attempted += result.blocks_tested;
      out.check(fingerprint(result, *strategy) == reference[i],
                std::string(kStrategies[i]) +
                    ": streamed parallel replay equals serial in-memory");
      for (const double s : result.eval_seconds.values()) block_us.push_back(s * 1e6);
      success += result.avg_success();
      // The replay's maintenance work: rule sets generated per tested block
      // (the cost the paper's adaptive strategies trade against success).
      regenerations += static_cast<double>(result.rulesets_generated) /
                       static_cast<double>(result.blocks_tested);
      coverage += result.avg_coverage();
    }
    rates.push_back(static_cast<double>(records * std::size(kStrategies)) /
                    seconds_since(pass_start));
    pass_p50_us.push_back(percentile(block_us, 50.0));
    pass_p99_us.push_back(percentile(block_us, 99.0));
    block_samples += block_us.size();
  } while (seconds_since(start) * static_cast<double>(rates.size() + 1) /
               static_cast<double>(rates.size()) <
           args.seconds);
  const double n = static_cast<double>(std::size(kStrategies));

  out.metric("throughput_per_s", median(rates), "1/s");
  // Per-pass figures, then the median over passes: a pass slowed by host
  // noise does not set the run's figure.
  out.metric("latency_p50_us", median(pass_p50_us), "us");
  out.metric("latency_p99_us", median(pass_p99_us), "us");
  out.metric("success_share", success / n, "share");
  out.metric("overhead_per_op", regenerations / n, "count");
  out.metric("setup_s", median(setups), "s");
  out.metric("peak_rss_mb", peak_rss_mb(), "MB");

  out.note("replay_pairs_per_s", median(rates), "pairs/s");
  out.note("avg_success", success / n, "share");
  out.note("avg_coverage", coverage / n, "share");
  out.note("rulesets_per_block", regenerations / n, "count");
  out.note("passes", static_cast<double>(rates.size()), "count");
  out.note("block_samples", static_cast<double>(block_samples), "count");
  out.note("pairs", static_cast<double>(records), "count");
  out.note("trace_bytes", static_cast<double>(std::filesystem::file_size(path)), "B");
  std::filesystem::remove(path);
}

void trace_offline_layers(const RunArgs& args, std::size_t blocks,
                          Tracer& tracer, Outcome& out) {
  const std::string path = args.work_dir + "/layers.aartr";
  const auto generate_start = Clock::now();
  const auto pairs = generate(args.seed, blocks);
  out.metric("trace.generate_s", seconds_since(generate_start), "s");
  const double n_pairs = static_cast<double>(pairs.size());

  measure_twice(tracer, [&] {
    const Tracer::Scope span(tracer, "store.write_pairs_file");
    aar::store::write_pairs_file(path, pairs);
  });
  const aar::store::Reader reader(path);
  measure_twice(tracer, [&] {
    for (std::size_t chunk = 0; chunk < reader.num_chunks(); ++chunk) {
      const Tracer::Scope span(tracer, "store.read_pairs_chunk", chunk + 1);
      const auto decoded = reader.read_pairs_chunk(chunk);
      if (decoded.empty()) throw std::runtime_error("empty aartr chunk");
    }
  });

  // Strategy rebuilds and forwarding evaluation, block by block: rebuild the
  // sliding window on block b, evaluate block b + 1 against it.
  std::uint64_t generated = 0;
  measure_twice(tracer, [&] {
    aar::core::SlidingWindow strategy(kMinSupport);
    const aar::core::Forwarder forwarder(aar::core::ForwarderConfig{.k = 2});
    aar::util::Rng rng(args.seed);
    const std::span<const aar::trace::QueryReplyPair> all(pairs);
    for (std::size_t b = 0; b + 1 <= blocks; ++b) {
      {
        const Tracer::Scope span(tracer, "mining.rebuild", b + 1);
        strategy.bootstrap(all.subspan(b * kBlock, kBlock));
      }
      const Tracer::Scope span(tracer, "core.evaluate_forwarding", b + 1);
      const auto measures = aar::core::evaluate_forwarding(
          strategy.current_ruleset(), all.subspan((b + 1) * kBlock, kBlock),
          forwarder, rng);
      if (measures.total_queries == 0) throw std::runtime_error("empty block");
    }
    generated = strategy.rulesets_generated();
  });

  // Parallel replay against serial on the same input (spans on, run once).
  tracer.enabled = true;
  {
    aar::core::SlidingWindow strategy(kMinSupport);
    const Tracer::Scope span(tracer, "par.serial");
    (void)aar::core::run_trace_simulation(strategy, pairs, kBlock);
  }
  {
    aar::core::SlidingWindow strategy(kMinSupport);
    aar::core::TraceSimulator simulator(strategy, kBlock);
    aar::core::ParallelConfig par;
    par.threads = 2;
    const Tracer::Scope span(tracer, "par.run_parallel");
    (void)simulator.run_parallel(std::span<const aar::trace::QueryReplyPair>(pairs), par);
  }
  tracer.enabled = false;

  const auto self = tracer.self_ns();
  const auto self_of = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  out.metric("store.encode_ns_per_pair", self_of("store.write_pairs_file") / n_pairs, "ns");
  out.metric("store.bytes_per_pair",
             static_cast<double>(std::filesystem::file_size(path)) / n_pairs, "B");
  out.metric("store.decode_ns_per_pair", self_of("store.read_pairs_chunk") / n_pairs, "ns");
  const double evaluated = static_cast<double>(blocks * kBlock);
  out.metric("core.evaluate_ns_per_pair",
             self_of("core.evaluate_forwarding") / evaluated, "ns");
  std::vector<double> rebuild_ms;
  for (const double ns : tracer.durations_ns("mining.rebuild")) rebuild_ms.push_back(ns / 1e6);
  out.metric("mining.rebuild_ms_p50", percentile(rebuild_ms, 50.0), "ms");
  out.metric("mining.rebuild_ms_max", percentile(rebuild_ms, 100.0), "ms");
  out.metric("mining.rulesets_generated", static_cast<double>(generated), "count");
  const auto serial = tracer.durations_ns("par.serial");
  const auto parallel = tracer.durations_ns("par.run_parallel");
  out.metric("par.parallel_over_serial",
             serial.empty() || parallel.empty() ? 0.0 : parallel.back() / serial.back(),
             "ratio");
  std::filesystem::remove(path);
}

}  // namespace perfbench
