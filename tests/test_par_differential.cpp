// Differential determinism suite for core::TraceSimulator::run_parallel
// (docs/PARALLEL.md): for every strategy with a block-mined rule set
// (static / sliding / lazy at two periods / adaptive), every thread count in
// {1, 2, 3, 8},
// and both trace sources (in-memory CSV load and streamed .aartr), the
// parallel replay must reproduce the serial replay exactly —
//
//   * the SimulationResult (strategy, block size, min support, generation
//     and block counters, and the full per-block α/ρ series, compared
//     bit-for-bit as doubles),
//   * the final RuleSet snapshot, compared as serialized bytes,
//   * the aar.metrics.v1 snapshot minus timers (wall-clock is excluded by
//     contract; the store.prefetch_hits/waits split is timing-dependent and
//     scrubbed — nothing else is).

#include "core/trace_simulator.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstddef>
#include <cstdio>
#include <memory>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "core/strategy.hpp"
#include "obs/registry.hpp"
#include "store/block_source.hpp"
#include "store/reader.hpp"
#include "store/writer.hpp"
#include "trace/database.hpp"
#include "trace/generator.hpp"
#include "trace/io.hpp"
#include "trace/record.hpp"

namespace aar::core {
namespace {

constexpr std::size_t kBlockSize = 1'000;
constexpr std::uint32_t kMinSupport = 5;

trace::TraceConfig fast_config() {
  trace::TraceConfig config;
  config.seed = 7;
  config.block_size = kBlockSize;
  config.active_hosts = 80;
  config.reply_neighbors = 16;
  return config;
}

std::vector<trace::QueryReplyPair> pairs_for_blocks(std::size_t blocks) {
  trace::TraceGenerator gen(fast_config());
  return gen.generate_pairs(blocks * kBlockSize);
}

std::unique_ptr<Strategy> make_strategy(const std::string& name) {
  if (name == "static") return std::make_unique<StaticRuleset>(kMinSupport);
  if (name == "sliding") return std::make_unique<SlidingWindow>(kMinSupport);
  if (name == "lazy") {
    return std::make_unique<LazySlidingWindow>(kMinSupport, 3);
  }
  // A period that divides neither the 9 blocks nor the 8 tested ones.
  if (name == "lazy5") {
    return std::make_unique<LazySlidingWindow>(kMinSupport, 5);
  }
  return std::make_unique<AdaptiveSlidingWindow>(kMinSupport, 5);
}

const std::vector<std::string>& strategy_names() {
  static const std::vector<std::string> names{"static", "sliding", "lazy",
                                              "lazy5", "adaptive"};
  return names;
}

/// Canonical byte encoding of everything deterministic in a
/// SimulationResult: all fields except the wall-clock eval_seconds series,
/// with series values printed at full round-trip precision.
std::string encode(const SimulationResult& result) {
  std::ostringstream os;
  os.precision(17);
  os << result.strategy << '|' << result.block_size << '|'
     << result.min_support << '|' << result.rulesets_generated << '|'
     << result.blocks_tested;
  for (const double v : result.coverage.values()) os << '|' << v;
  os << '#';
  for (const double v : result.success.values()) os << '|' << v;
  return os.str();
}

/// Timer-free aar.metrics.v1 snapshot of the global registry.
std::string metrics_json() {
  std::ostringstream os;
  obs::Registry::global().write_json(os, {}, /*include_timers=*/false);
  return os.str();
}

/// Drop the timing-racy prefetch-hit/wait split (the SUM is deterministic,
/// the split depends on thread scheduling).  Both are flat integer counters
/// in the single-line v1 layout, so the scrub is exact.
std::string scrub(std::string json) {
  static const std::regex prefetch(
      R"re("store\.prefetch_(hits|waits)":\d+,?)re");
  json = std::regex_replace(json, prefetch, "");
  static const std::regex dangling(R"re(,\})re");
  return std::regex_replace(json, dangling, "}");
}

enum class SourceKind { memory, aartr };

struct RunOutput {
  std::string result_bytes;
  std::string ruleset_bytes;
  std::string metrics;
};

/// One replay from a cold strategy and a reset registry.  threads < 0 means
/// the serial path; otherwise run_parallel with that thread count.
RunOutput run_once(const std::string& strategy_name,
                   const std::vector<trace::QueryReplyPair>& pairs,
                   const std::string& aartr_path, SourceKind kind,
                   int threads) {
  obs::Registry::global().reset();
  std::unique_ptr<Strategy> strategy = make_strategy(strategy_name);
  TraceSimulator simulator(*strategy, kBlockSize);
  ParallelConfig config;
  config.threads = threads <= 0 ? 1 : static_cast<std::size_t>(threads);

  SimulationResult result;
  if (kind == SourceKind::memory) {
    result = threads < 0 ? simulator.run(pairs)
                         : simulator.run_parallel(pairs, config);
  } else {
    const store::Reader reader(aartr_path);
    store::StoreBlockSource source(reader);
    result = threads < 0 ? simulator.run(source)
                         : simulator.run_parallel(source, config);
  }

  RunOutput out;
  out.result_bytes = encode(result);
  std::ostringstream ruleset;
  strategy->current_ruleset().save(ruleset);
  out.ruleset_bytes = ruleset.str();
  out.metrics = metrics_json();
  return out;
}

class ParDifferentialTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // One 9-block trace (bootstrap + 8 tested), shared by every case.  The
    // CSV round trip mimics aar_sim's --trace path for in-memory replay;
    // the .aartr file feeds the streamed store path.  File names carry the
    // pid: ctest runs each case as its own process, so concurrent cases
    // would otherwise write and read the same TempDir paths mid-write.
    const auto generated = pairs_for_blocks(9);
    const std::string tag = std::to_string(static_cast<long>(::getpid()));
    const std::string dir = ::testing::TempDir();
    const std::string csv = dir + "/par_diff_pairs." + tag + ".csv";
    trace::Database db;
    db.set_pairs(generated);
    trace::write_pairs_csv(csv, db);
    pairs_ = new std::vector<trace::QueryReplyPair>(trace::read_pairs_csv(csv));
    aartr_path_ = new std::string(dir + "/par_diff_pairs." + tag + ".aartr");
    store::write_pairs_file(*aartr_path_, *pairs_);
    std::remove(csv.c_str());
  }
  static void TearDownTestSuite() {
    if (aartr_path_ != nullptr) std::remove(aartr_path_->c_str());
    delete pairs_;
    delete aartr_path_;
    pairs_ = nullptr;
    aartr_path_ = nullptr;
  }

  static const std::vector<trace::QueryReplyPair>& pairs() { return *pairs_; }
  static const std::string& aartr_path() { return *aartr_path_; }

 private:
  static std::vector<trace::QueryReplyPair>* pairs_;
  static std::string* aartr_path_;
};

std::vector<trace::QueryReplyPair>* ParDifferentialTest::pairs_ = nullptr;
std::string* ParDifferentialTest::aartr_path_ = nullptr;

TEST_F(ParDifferentialTest, ParallelMatchesSerialInMemory) {
  for (const std::string& name : strategy_names()) {
    const RunOutput serial =
        run_once(name, pairs(), aartr_path(), SourceKind::memory, -1);
    for (const int threads : {1, 2, 3, 8}) {
      const RunOutput parallel =
          run_once(name, pairs(), aartr_path(), SourceKind::memory, threads);
      EXPECT_EQ(parallel.result_bytes, serial.result_bytes)
          << name << " threads=" << threads;
      EXPECT_EQ(parallel.ruleset_bytes, serial.ruleset_bytes)
          << name << " threads=" << threads;
      EXPECT_EQ(scrub(parallel.metrics), scrub(serial.metrics))
          << name << " threads=" << threads;
    }
  }
}

TEST_F(ParDifferentialTest, ParallelMatchesSerialStreamedStore) {
  for (const std::string& name : strategy_names()) {
    const RunOutput serial =
        run_once(name, pairs(), aartr_path(), SourceKind::aartr, -1);
    for (const int threads : {1, 2, 3, 8}) {
      const RunOutput parallel =
          run_once(name, pairs(), aartr_path(), SourceKind::aartr, threads);
      EXPECT_EQ(parallel.result_bytes, serial.result_bytes)
          << name << " threads=" << threads;
      EXPECT_EQ(parallel.ruleset_bytes, serial.ruleset_bytes)
          << name << " threads=" << threads;
      EXPECT_EQ(scrub(parallel.metrics), scrub(serial.metrics))
          << name << " threads=" << threads;
    }
  }
}

TEST_F(ParDifferentialTest, MetricsIdenticalAcrossThreadCounts) {
  // Only timers — already excluded — may differ with the thread count.
  for (const std::string& name : strategy_names()) {
    const RunOutput baseline =
        run_once(name, pairs(), aartr_path(), SourceKind::memory, 1);
    for (const int threads : {2, 3, 8}) {
      const RunOutput other =
          run_once(name, pairs(), aartr_path(), SourceKind::memory, threads);
      EXPECT_EQ(scrub(other.metrics), scrub(baseline.metrics))
          << name << " threads=" << threads;
    }
  }
}

TEST_F(ParDifferentialTest, StreamedAndInMemorySourcesAgree) {
  // The two source paths replay the same pair stream, so the parallel
  // engine must produce the same result and rule set from either.
  for (const int threads : {1, 8}) {
    const RunOutput memory =
        run_once("sliding", pairs(), aartr_path(), SourceKind::memory, threads);
    const RunOutput streamed =
        run_once("sliding", pairs(), aartr_path(), SourceKind::aartr, threads);
    EXPECT_EQ(memory.result_bytes, streamed.result_bytes)
        << "threads=" << threads;
    EXPECT_EQ(memory.ruleset_bytes, streamed.ruleset_bytes)
        << "threads=" << threads;
  }
}

TEST_F(ParDifferentialTest, AdaptiveTraceBothRegeneratesAndSkips) {
  // The differential above only covers adaptive's keep-the-rules branch if
  // some tested block passes its thresholds, and its regenerate branch if
  // some block fails them: both must happen on this trace.
  for (const int threads : {-1, 2}) {
    obs::Registry::global().reset();
    std::unique_ptr<Strategy> strategy = make_strategy("adaptive");
    TraceSimulator simulator(*strategy, kBlockSize);
    ParallelConfig config;
    config.threads = 2;
    const SimulationResult result = threads < 0
                                        ? simulator.run(pairs())
                                        : simulator.run_parallel(pairs(), config);
    const std::uint64_t regenerations = result.rulesets_generated - 1;
    EXPECT_GT(regenerations, 0u) << "threads=" << threads;
    EXPECT_LT(regenerations, result.blocks_tested) << "threads=" << threads;
  }
}

TEST_F(ParDifferentialTest, RepeatedParallelRunsAreIdentical) {
  const RunOutput first =
      run_once("adaptive", pairs(), aartr_path(), SourceKind::memory, 8);
  const RunOutput second =
      run_once("adaptive", pairs(), aartr_path(), SourceKind::memory, 8);
  EXPECT_EQ(first.result_bytes, second.result_bytes);
  EXPECT_EQ(first.ruleset_bytes, second.ruleset_bytes);
  EXPECT_EQ(scrub(first.metrics), scrub(second.metrics));
}

TEST_F(ParDifferentialTest, RunParallelValidatesLikeSerial) {
  SlidingWindow strategy(kMinSupport);
  const std::vector<trace::QueryReplyPair> empty;
  TraceSimulator zero(strategy, 0);
  EXPECT_THROW((void)zero.run_parallel(pairs()), std::invalid_argument);
  TraceSimulator simulator(strategy, kBlockSize);
  EXPECT_THROW((void)simulator.run_parallel(empty), std::runtime_error);
  const auto single = pairs_for_blocks(1);
  EXPECT_THROW((void)simulator.run_parallel(single), std::runtime_error);
}

}  // namespace
}  // namespace aar::core
