#pragma once
// Sharded block executor — the worker half of the deterministic parallel
// replay engine (docs/PARALLEL.md).
//
// A block's query–reply pairs are partitioned by query GUID into a FIXED
// number of shards (independent of the worker count), each shard is
// evaluated / counted on a util::ThreadPool worker, and the per-shard
// results are folded in canonical shard-index order:
//
//   * evaluate: every GUID lands wholly in one shard with its pair order
//     preserved, so the per-query first-sight / first-success logic of
//     core::evaluate is untouched and the integer (N, n, s) sums over
//     shards equal the serial single-pass counts exactly;
//   * mine: counting is pure addition, so per-shard mining::ShardCounts
//     merged by IncrementalRuleMiner::replace_window reproduce the serial
//     miner state — counts, dirty set, eviction total — bit for bit.
//
// The shard function is an explicit SplitMix64 finalizer, not std::hash,
// so the partition (and the par.* shard metrics) is identical across
// platforms, standard libraries, and runs.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/measures.hpp"
#include "core/ruleset.hpp"
#include "core/strategy.hpp"
#include "mining/incremental_miner.hpp"
#include "trace/record.hpp"
#include "util/parallel.hpp"

namespace aar::par {

/// Default shard count.  Chosen over `threads` so the partition — and every
/// deterministic par.* metric derived from it — does not vary with the
/// worker count; workers just pick up shards until none remain.
inline constexpr std::size_t kDefaultShards = 16;

/// Deterministic, platform-stable shard of a query GUID (SplitMix64
/// finalizer).  shards >= 1.
[[nodiscard]] constexpr std::size_t shard_of(trace::Guid guid,
                                             std::size_t shards) noexcept {
  std::uint64_t x = guid + 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  x ^= x >> 31;
  return static_cast<std::size_t>(x % shards);
}

/// core::BlockExecutor over a worker pool.  One instance serves one replay
/// (core::TraceSimulator::run_parallel attaches it for the run's duration);
/// shard buffers and GUID tables are reused block to block, so steady state
/// allocates nothing on the partition and evaluate paths.
class ShardExecutor final : public core::BlockExecutor {
 public:
  /// threads == 0 means hardware_concurrency(); shards is clamped to >= 1.
  explicit ShardExecutor(std::size_t threads = 0,
                         std::size_t shards = kDefaultShards);

  /// Exactly core::evaluate(rules, block), computed shard-wise.
  [[nodiscard]] core::BlockMeasures evaluate(const core::RuleSet& rules,
                                             core::Block block) override;

  /// Exactly miner.add(block) + miner.evict_to(block.size()), computed
  /// shard-wise and merged in shard-index order (the caller snapshots).
  void mine(mining::IncrementalRuleMiner& miner, core::Block block) override;

  [[nodiscard]] std::size_t threads() const noexcept { return pool_.size(); }
  [[nodiscard]] std::size_t shards() const noexcept {
    return shard_pairs_.size();
  }

 private:
  /// Split `block` into shard_pairs_ by shard_of(guid) and record the
  /// deterministic par.* shard metrics.
  void partition(core::Block block);

  std::vector<std::vector<trace::QueryReplyPair>> shard_pairs_;
  std::vector<core::GuidStates> shard_states_;  ///< one GUID table per shard
  std::vector<mining::ShardCounts> shard_counts_;
  std::vector<core::BlockMeasures> shard_measures_;
  util::ThreadPool pool_;  ///< last member: joins before shard state dies
};

}  // namespace aar::par
