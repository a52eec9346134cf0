#pragma once
// Canonical shard-window merge for live mining (docs/NODE.md).
// replace_window over per-shard ShardCounts, merged in canonical shard
// order, is byte-identical to the serial miner (test_par_shard_merge.cpp);
// WindowMerger packages that recipe for callers whose shards hold *window
// pairs* rather than a replayed block: gather each shard's pairs, impose
// the canonical order (capture time, then GUID — pair times are globally
// unique in the daemon, the tiebreak is belt-and-braces), truncate to the
// miner's window cap keeping the newest pairs, count, and replace the
// miner's window in one step.
//
// The merged rule state is invariant under the pair-to-shard partition:
// counting is pure addition (ShardCounts docs) and the sorted block is the
// same multiset no matter which shard observed which pair — the property
// the sharded aar_node daemon's thread-count determinism gate rests on.

#include <cstddef>
#include <span>
#include <vector>

#include "mining/incremental_miner.hpp"
#include "trace/record.hpp"

namespace aar::mining {

class WindowMerger {
 public:
  explicit WindowMerger(std::size_t shards);

  /// Shard `i`'s pair buffer: clear and fill before each merge_into().
  [[nodiscard]] std::vector<trace::QueryReplyPair>& input(std::size_t i) {
    return inputs_[i];
  }
  [[nodiscard]] std::size_t shards() const noexcept { return inputs_.size(); }

  /// Merge the inputs into `miner` (replace_window + canonical counts) and
  /// return the merged block, sorted ascending by (time, guid), truncated
  /// to the miner's window cap.  The span is valid until the next call.
  /// Inputs are left untouched.
  std::span<const trace::QueryReplyPair> merge_into(IncrementalRuleMiner& miner);

 private:
  std::vector<std::vector<trace::QueryReplyPair>> inputs_;
  std::vector<trace::QueryReplyPair> block_;
  std::vector<ShardCounts> counts_;
  std::vector<ShardCounts*> count_ptrs_;
};

}  // namespace aar::mining
