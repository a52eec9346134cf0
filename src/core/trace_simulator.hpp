#pragma once
// Block-replay simulator (paper Section IV-B).
//
// Replaces the paper's <500-line PHP/MySQL simulator: splits a query–reply
// pair stream into blocks, bootstraps the strategy on block 0, and tests
// every following block, recording the per-block coverage and success series
// that the paper's figures plot and the generation counter its Section V
// prose reports.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/strategy.hpp"
#include "trace/block_source.hpp"
#include "trace/record.hpp"
#include "util/stats.hpp"

namespace aar::core {

struct SimulationResult {
  std::string strategy;
  std::size_t block_size = 0;
  std::uint32_t min_support = 0;
  util::Series coverage{"coverage"};
  util::Series success{"success"};
  /// Wall-clock seconds spent evaluating (and, per the strategy's policy,
  /// regenerating from) each test block — the per-block timing series that
  /// `aar_sim run --metrics` exports.
  util::Series eval_seconds{"eval_seconds"};
  std::uint64_t rulesets_generated = 0;  ///< bootstrap included
  std::uint64_t blocks_tested = 0;

  [[nodiscard]] double avg_coverage() const noexcept { return coverage.mean(); }
  [[nodiscard]] double avg_success() const noexcept { return success.mean(); }

  /// Blocks tested per rule-set generation *after* bootstrap — the paper's
  /// "new rule sets were generated every 1.7 blocks" statistic.
  [[nodiscard]] double blocks_per_generation() const noexcept {
    const std::uint64_t regens =
        rulesets_generated > 0 ? rulesets_generated - 1 : 0;
    if (regens == 0) return static_cast<double>(blocks_tested);
    return static_cast<double>(blocks_tested) / static_cast<double>(regens);
  }

  [[nodiscard]] std::string to_string() const;
};

/// Replay `pairs` through `strategy` in blocks of `block_size`.
/// Block 0 bootstraps; blocks 1..B-1 are tested.  Throws
/// std::invalid_argument for a zero block size and std::runtime_error when
/// the trace holds fewer than two whole blocks — in every build type, not
/// just under assertions.
[[nodiscard]] SimulationResult run_trace_simulation(
    Strategy& strategy, std::span<const trace::QueryReplyPair> pairs,
    std::size_t block_size);

/// Out-of-core variant: pull blocks from `source` until it is exhausted.
/// Only the current block need be resident, so arbitrarily long traces
/// (e.g. a store::StoreBlockSource over an aartr file) replay in bounded
/// memory.  Throws std::invalid_argument for a zero block size and
/// std::runtime_error when the source yields no bootstrap block or no test
/// block.  Produces exactly the per-block series the in-memory overload
/// produces for the same pair stream.
[[nodiscard]] SimulationResult run_trace_simulation(Strategy& strategy,
                                                    trace::BlockSource& source,
                                                    std::size_t block_size);

/// Knobs for run_parallel (docs/PARALLEL.md).  Every value is
/// output-neutral: the replay's SimulationResult, RuleSet snapshots, and
/// deterministic metrics are identical for any thread count — only
/// wall-clock time changes.
struct ParallelConfig {
  /// Threads for evaluation and counting; 0 = hardware_concurrency.  At 2
  /// or more a worker counts each regenerated block while the caller
  /// evaluates it (the two stages are all there is to overlap, so more
  /// threads add nothing); at 1 the caller does both.
  std::size_t threads = 0;
};

/// Object façade over the block-replay loop: one strategy, one block size,
/// serial or parallel execution.  `run` is exactly run_trace_simulation;
/// `run_parallel` is the same call with a worker lent to the strategy, which
/// counts the next rule set's window while the block is evaluated, under a
/// bit-determinism contract against the serial path (docs/PARALLEL.md).
/// Decode-ahead belongs to the block source (store::StoreBlockSource
/// prefetches chunks on its own thread), so both paths pull it alike.
///
/// run_parallel is defined in the aar::par layer (src/par/replay.cpp);
/// link aar_par to use it.  The serial members live in aar_core, keeping
/// core free of any dependency on the parallel engine.
class TraceSimulator {
 public:
  TraceSimulator(Strategy& strategy, std::size_t block_size)
      : strategy_(strategy), block_size_(block_size) {}

  [[nodiscard]] SimulationResult run(
      std::span<const trace::QueryReplyPair> pairs) {
    return run_trace_simulation(strategy_, pairs, block_size_);
  }
  [[nodiscard]] SimulationResult run(trace::BlockSource& source) {
    return run_trace_simulation(strategy_, source, block_size_);
  }

  /// Deterministic parallel replay: same-input runs produce identical
  /// SimulationResult encodings, RuleSet snapshots, and timer-free metrics
  /// for every thread count, including the serial path.  Same argument
  /// validation (and exceptions) as run().
  [[nodiscard]] SimulationResult run_parallel(
      std::span<const trace::QueryReplyPair> pairs,
      const ParallelConfig& config = {});
  [[nodiscard]] SimulationResult run_parallel(
      trace::BlockSource& source, const ParallelConfig& config = {});

  [[nodiscard]] Strategy& strategy() const noexcept { return strategy_; }
  [[nodiscard]] std::size_t block_size() const noexcept { return block_size_; }

 private:
  Strategy& strategy_;
  std::size_t block_size_;
};

}  // namespace aar::core
