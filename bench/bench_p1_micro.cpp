// P1 — performance microbenchmarks (google-benchmark).
//
// The paper reports "rule set generation required no more than a few
// seconds" on its PHP/MySQL pipeline and 45-minute full simulations.  These
// benches document the native-code costs: rule mining, block evaluation
// (plain and through each strategy's test_block), trace generation, and one
// overlay flood.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>

#include "bench_common.hpp"

#include "core/measures.hpp"
#include "core/strategy.hpp"
#include "mining/incremental_miner.hpp"
#include "sim/experiment.hpp"
#include "trace/generator.hpp"

namespace {

using namespace aar;

std::vector<trace::QueryReplyPair> shared_pairs(std::size_t n) {
  static std::vector<trace::QueryReplyPair> pairs = [] {
    trace::TraceConfig config;
    trace::TraceGenerator generator(config);
    return generator.generate_pairs(200'000);
  }();
  return {pairs.begin(), pairs.begin() + static_cast<std::ptrdiff_t>(n)};
}

void BM_RuleSetBuild(benchmark::State& state) {
  const auto pairs = shared_pairs(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::RuleSet::build(pairs, 10));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RuleSetBuild)->Arg(10'000)->Arg(50'000)->Arg(100'000);

void BM_BlockEvaluate(benchmark::State& state) {
  const auto pairs = shared_pairs(20'000);
  const auto train = std::span(pairs).subspan(0, 10'000);
  const auto test = std::span(pairs).subspan(10'000, 10'000);
  const core::RuleSet rules = core::RuleSet::build(train, 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::evaluate(rules, test));
  }
  state.SetItemsProcessed(state.iterations() * 10'000);
}
BENCHMARK(BM_BlockEvaluate);

void BM_TraceGeneration(benchmark::State& state) {
  trace::TraceConfig config;
  trace::TraceGenerator generator(config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        generator.generate_pairs(static_cast<std::size_t>(state.range(0))));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TraceGeneration)->Arg(10'000);

void BM_SlidingWindowBlock(benchmark::State& state) {
  const auto pairs = shared_pairs(200'000);
  core::SlidingWindow strategy(10);
  strategy.bootstrap(std::span(pairs).subspan(0, 10'000));
  std::size_t block = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        strategy.test_block(std::span(pairs).subspan(block * 10'000, 10'000)));
    block = block % 18 + 1;
  }
  state.SetItemsProcessed(state.iterations() * 10'000);
}
BENCHMARK(BM_SlidingWindowBlock);

void BM_IncrementalBlock(benchmark::State& state) {
  const auto pairs = shared_pairs(200'000);
  core::IncrementalRuleset strategy(10);
  strategy.bootstrap(std::span(pairs).subspan(0, 10'000));
  std::size_t block = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        strategy.test_block(std::span(pairs).subspan(block * 10'000, 10'000)));
    block = block % 18 + 1;
  }
  state.SetItemsProcessed(state.iterations() * 10'000);
}
BENCHMARK(BM_IncrementalBlock);

void BM_StreamingBlock(benchmark::State& state) {
  const auto pairs = shared_pairs(200'000);
  core::StreamingRuleset strategy(10);
  strategy.bootstrap(std::span(pairs).subspan(0, 10'000));
  std::size_t block = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        strategy.test_block(std::span(pairs).subspan(block * 10'000, 10'000)));
    block = block % 18 + 1;
  }
  state.SetItemsProcessed(state.iterations() * 10'000);
}
BENCHMARK(BM_StreamingBlock);

/// Support threshold scaled to the window like the paper's 10-per-10k-block
/// calibration (floor 2, so the smallest band still mines rules).
std::uint32_t scaled_support(std::size_t window) {
  return std::max<std::uint32_t>(2, static_cast<std::uint32_t>(window / 1'000));
}

// --- incremental vs batch sliding-window refresh ----------------------------
//
// The refresh job both layers need: keep a rule set fresh over a sliding
// window of W pairs, refreshing every W/16 new observations.  The batch bench
// is the code path this PR replaced (deque window, materialize into a vector,
// full RuleSet::build per refresh); the miner bench is aar::mining
// (add/evict counts + dirty-antecedent snapshot).  Bands 1k / 10k / 100k.

void BM_MinerRefresh(benchmark::State& state) {
  const auto window = static_cast<std::size_t>(state.range(0));
  const std::size_t slide = std::max<std::size_t>(1, window / 16);
  const auto pairs = shared_pairs(200'000);
  mining::IncrementalRuleMiner miner(
      {.window = window, .min_support = scaled_support(window)});
  std::size_t cursor = 0;
  auto feed = [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      miner.add(pairs[cursor]);
      cursor = (cursor + 1) % pairs.size();
    }
  };
  feed(window);  // fill the window before timing steady-state refreshes
  miner.snapshot();
  for (auto _ : state) {
    feed(slide);
    benchmark::DoNotOptimize(miner.snapshot());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(slide));
}
BENCHMARK(BM_MinerRefresh)->Arg(1'000)->Arg(10'000)->Arg(100'000);

void BM_BatchRefresh(benchmark::State& state) {
  const auto window = static_cast<std::size_t>(state.range(0));
  const std::size_t slide = std::max<std::size_t>(1, window / 16);
  const std::uint32_t min_support = scaled_support(window);
  const auto pairs = shared_pairs(200'000);
  std::deque<trace::QueryReplyPair> log;
  std::size_t cursor = 0;
  auto feed = [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      log.push_back(pairs[cursor]);
      cursor = (cursor + 1) % pairs.size();
      while (log.size() > window) log.pop_front();
    }
  };
  feed(window);
  for (auto _ : state) {
    feed(slide);
    const std::vector<trace::QueryReplyPair> materialized(log.begin(),
                                                          log.end());
    benchmark::DoNotOptimize(core::RuleSet::build(materialized, min_support));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(slide));
}
BENCHMARK(BM_BatchRefresh)->Arg(1'000)->Arg(10'000)->Arg(100'000);

void BM_OverlayFloodQuery(benchmark::State& state) {
  sim::ExperimentConfig config;
  config.nodes = 1'000;
  sim::Engine net = sim::make_network(config, [](overlay::NodeId) {
    return std::make_unique<overlay::FloodingPolicy>();
  });
  util::Rng rng(7);
  for (auto _ : state) {
    const auto origin =
        static_cast<overlay::NodeId>(rng.below(net.num_nodes()));
    benchmark::DoNotOptimize(net.search(origin, net.sample_target(origin)));
  }
}
BENCHMARK(BM_OverlayFloodQuery);

void BM_ZipfSample(benchmark::State& state) {
  util::ZipfSampler zipf(100'000, 0.8);
  util::Rng rng(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf(rng));
  }
}
BENCHMARK(BM_ZipfSample);

struct RefreshSpeedup {
  double speedup = 0.0;   ///< batch seconds / miner seconds, same refreshes
  bool identical = false; ///< final rule sets byte-for-byte equal
};

/// Hand-timed acceptance measurement behind the BM_*Refresh bands: run the
/// same refresh schedule through both paths (each in its own hot loop, with
/// warmup refreshes excluded from the timing), check the final rule sets
/// agree, and report how much faster the incremental side is.  Best of 15
/// trials per side — this measures the cost of the work, not of whatever
/// else the CI runner was doing at the time.  A 10k refresh trial is under a
/// millisecond of miner time, so best-of-three still read below the 5x band
/// on a loaded runner.
RefreshSpeedup measure_refresh_speedup(std::size_t window, int refreshes) {
  const std::size_t slide = std::max<std::size_t>(1, window / 16);
  const std::uint32_t min_support = scaled_support(window);
  const auto pairs = shared_pairs(200'000);
  using Clock = std::chrono::steady_clock;
  constexpr int kWarmup = 2;
  constexpr int kTrials = 15;

  double miner_seconds = 0.0;
  double batch_seconds = 0.0;
  bool identical = true;
  for (int trial = 0; trial < kTrials; ++trial) {
    // Incremental side over the whole schedule.
    mining::IncrementalRuleMiner miner(
        {.window = window, .min_support = min_support});
    std::size_t cursor = 0;
    auto feed_miner = [&](std::size_t n) {
      for (std::size_t i = 0; i < n; ++i) {
        miner.add(pairs[cursor]);
        cursor = (cursor + 1) % pairs.size();
      }
    };
    feed_miner(window);
    miner.snapshot();
    for (int r = 0; r < kWarmup; ++r) {
      feed_miner(slide);
      benchmark::DoNotOptimize(miner.snapshot());
    }
    const auto miner_t0 = Clock::now();
    for (int r = 0; r < refreshes; ++r) {
      feed_miner(slide);
      benchmark::DoNotOptimize(miner.snapshot());
    }
    const double miner_trial =
        std::chrono::duration<double>(Clock::now() - miner_t0).count();

    // Batch side over the identical stream and schedule.
    std::deque<trace::QueryReplyPair> log;
    cursor = 0;
    auto feed_batch = [&](std::size_t n) {
      for (std::size_t i = 0; i < n; ++i) {
        log.push_back(pairs[cursor]);
        cursor = (cursor + 1) % pairs.size();
        while (log.size() > window) log.pop_front();
      }
    };
    feed_batch(window);
    core::RuleSet last_batch;
    for (int r = 0; r < kWarmup; ++r) {
      feed_batch(slide);
      const std::vector<trace::QueryReplyPair> materialized(log.begin(),
                                                            log.end());
      benchmark::DoNotOptimize(core::RuleSet::build(materialized, min_support));
    }
    const auto batch_t0 = Clock::now();
    for (int r = 0; r < refreshes; ++r) {
      feed_batch(slide);
      const std::vector<trace::QueryReplyPair> materialized(log.begin(),
                                                            log.end());
      last_batch = core::RuleSet::build(materialized, min_support);
      benchmark::DoNotOptimize(&last_batch);
    }
    const double batch_trial =
        std::chrono::duration<double>(Clock::now() - batch_t0).count();

    identical = identical && miner.ruleset() == last_batch;
    miner_seconds =
        trial == 0 ? miner_trial : std::min(miner_seconds, miner_trial);
    batch_seconds =
        trial == 0 ? batch_trial : std::min(batch_seconds, batch_trial);
  }
  return {.speedup =
              miner_seconds > 0.0 ? batch_seconds / miner_seconds : 0.0,
          .identical = identical};
}

}  // namespace

// Expanded BENCHMARK_MAIN() so the run also lands in the perf trajectory
// (out/BENCH_p1_micro.json) like every comparison bench.
int main(int argc, char** argv) {
  aar::bench::PerfRecord perf("p1_micro");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  // ISSUE 3 acceptance: the incremental miner's refresh (slide + snapshot)
  // must beat the replaced per-refresh batch RuleSet::build by >= 5x at the
  // paper's 10k block size, with identical rule sets.
  int status = 0;
  std::cout << "\n==== miner vs batch sliding-window refresh ====\n";
  const struct {
    std::size_t window;
    int refreshes;
    const char* label;
  } bands[] = {{1'000, 24, "1k"}, {10'000, 24, "10k"}, {100'000, 4, "100k"}};
  for (const auto& band : bands) {
    const RefreshSpeedup result =
        measure_refresh_speedup(band.window, band.refreshes);
    perf.extra(std::string("miner_refresh_speedup_") + band.label,
               result.speedup);
    const bool pass =
        result.identical && (band.window != 10'000 || result.speedup >= 5.0);
    std::cout << "window " << band.window << ": miner "
              << (result.identical ? "identical" : "DIVERGED") << ", "
              << result.speedup << "x faster than batch"
              << (pass ? "" : "  [FAIL]") << "\n";
    if (!pass) status = 1;
  }
  return perf.finish(status);
}
