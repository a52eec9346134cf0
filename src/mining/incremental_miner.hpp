#pragma once
// Incremental windowed association-rule mining (paper Section VI, pointer to
// data-stream mining [18]).
//
// Before this layer existed every rule-set refresh was a from-scratch
// core::RuleSet::build over the full window, duplicated in two places:
// core::Strategy::regenerate re-mined all pairs of a block, and
// overlay::AssociationRoutingPolicy materialized its observation deque into a
// temporary vector per rebuild — at every adopting node.  IncrementalRuleMiner
// replaces both with one engine that maintains (antecedent -> consequent ->
// support) counts under add()/evict() over a ring-buffer window and exposes a
// cheap snapshot():
//
//   * add(pair) appends the pair to the window (evicting the oldest pair
//     first when a bounded window is full) and bumps its counts;
//   * evict_oldest()/evict_to() retire pairs in FIFO order, decrementing the
//     same counts — a count reaching zero disappears entirely;
//   * snapshot() re-materializes ONLY the antecedents whose counts changed
//     since the previous snapshot ("dirty" antecedents) into an internal
//     core::RuleSet and returns a reference to it.
//
// The produced rule set is always exactly RuleSet::build(live window,
// min_support, min_confidence) — the differential property tests in
// tests/test_mining.cpp enforce byte-identical save() output — but a refresh
// after S new pairs costs O(S + dirty antecedents·log) instead of O(window).
//
// RuleSet itself stays immutable to every consumer (covers/matches/top_k,
// ForwarderConfig, the measures code): the miner is its single befriended
// writer, and callers only ever see `const RuleSet&`.
//
// Instrumented with aar::obs: `mining.snapshot` timer, `mining.evictions`
// counter, `mining.antecedents` gauge (distinct antecedents in the window).
// The eviction counter is synced at snapshot() time, keeping the per-pair
// hot path free of registry traffic.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/ruleset.hpp"
#include "trace/record.hpp"
#include "util/flat_map.hpp"

namespace aar::mining {

using trace::HostId;
using trace::QueryReplyPair;

struct MinerConfig {
  /// Pairs retained in the sliding window; 0 = unbounded (caller evicts
  /// manually with evict_oldest()/evict_to()).
  std::size_t window = 0;
  /// Support-pruning threshold, as in RuleSet::build.  >= 1: the miner's
  /// constructor throws std::invalid_argument otherwise.
  std::uint32_t min_support = 10;
  /// Confidence-pruning threshold, as in RuleSet::build.  0 disables.
  double min_confidence = 0.0;
};

/// Growable FIFO ring buffer of pairs — the miner's window storage.  Unlike
/// std::deque it keeps one contiguous power-of-two allocation, so steady-state
/// add/evict never touches the allocator.
class PairRing {
 public:
  void push_back(const QueryReplyPair& pair);
  void pop_front() noexcept;
  [[nodiscard]] const QueryReplyPair& front() const noexcept {
    return slots_[head_];
  }
  /// i-th oldest pair, 0 <= i < size() (tests and window dumps).
  [[nodiscard]] const QueryReplyPair& at(std::size_t i) const noexcept {
    return slots_[(head_ + i) & (slots_.size() - 1)];
  }
  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  void clear() noexcept { head_ = 0, count_ = 0; }

 private:
  void grow();

  std::vector<QueryReplyPair> slots_;  // capacity always a power of two
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

/// Live support counts for one antecedent: consequent -> count plus the
/// antecedent's total (the confidence denominator, which counts *all* of
/// the source's pairs, pruned or not — exactly like RuleSet::build).
struct AntecedentCounts {
  util::FlatCountMap<HostId, std::uint32_t> consequents;
  std::uint32_t total = 0;
  bool dirty = false;  ///< already queued in dirty_ for the next snapshot
};

/// Pair counts kept outside a miner: the same (antecedent -> consequent ->
/// support, total) state the miner keeps, accumulated on whatever thread
/// owns the table and installed by IncrementalRuleMiner::replace_window.
/// core::Strategy counts the next window into one while the current rule
/// set is evaluated.  Counting is pure addition, so the table equals the
/// serial count of the block in whatever order its pairs were counted.
class ShardCounts {
 public:
  /// Count one pair (two FlatCountMap ops, no window bookkeeping).
  void count(const QueryReplyPair& pair) {
    AntecedentCounts& state = counts_.find_or_insert(pair.source_host);
    ++state.consequents.find_or_insert(pair.replying_neighbor);
    ++state.total;
  }
  void count(std::span<const QueryReplyPair> pairs) {
    for (const QueryReplyPair& pair : pairs) count(pair);
  }
  void clear() noexcept { counts_.clear(); }
  [[nodiscard]] std::size_t distinct_antecedents() const noexcept {
    return counts_.size();
  }

 private:
  friend class IncrementalRuleMiner;
  util::FlatCountMap<HostId, AntecedentCounts> counts_;
};

class IncrementalRuleMiner {
 public:
  explicit IncrementalRuleMiner(MinerConfig config = {});

  /// Append a pair to the window and count it.  A bounded window that is
  /// already full evicts its oldest pair first.
  void add(const QueryReplyPair& pair);
  /// Count every pair of `block` (bulk add).
  void add(std::span<const QueryReplyPair> block);

  /// Retire the oldest pair (no-op on an empty window).
  void evict_oldest();
  /// Retire oldest pairs until at most `target` remain.
  void evict_to(std::size_t target);
  /// Drop the whole window and all counts; the next snapshot() is empty.
  void clear();

  /// Remove every window pair that names `host` as antecedent or consequent
  /// (the peer departed — its rules route to a dead NodeId) and returns how
  /// many pairs were purged.  Take a snapshot() afterwards to drop the
  /// host's rules from the routed-against set.
  std::size_t purge_host(HostId host);

  /// Replace the whole window with `block`, whose counts were accumulated
  /// out-of-band into `counts`.  Equivalent to add(block) followed by
  /// evict_to(block.size()): the post-call counts, dirty set, and eviction
  /// total are identical, so the next snapshot() — and every metric it
  /// syncs — is byte-identical to the serial path.  The caller must ensure
  /// `counts` counts exactly the pairs of `block`.  The table is swapped in
  /// whole and comes back cleared, holding the retired window's allocation
  /// for the caller to count the next window into.
  void replace_window(std::span<const QueryReplyPair> block,
                      ShardCounts& counts);

  /// Materialize every antecedent whose counts changed since the last
  /// snapshot into the internal rule set and return it.  Equivalent to
  /// RuleSet::build over the live window, at a cost proportional to the
  /// churn since the previous snapshot.
  const core::RuleSet& snapshot();

  /// The rule set produced by the most recent snapshot() — NOT the live
  /// counts.  Callers route against this between snapshots.
  [[nodiscard]] const core::RuleSet& ruleset() const noexcept {
    return ruleset_;
  }

  [[nodiscard]] const MinerConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::size_t window_size() const noexcept {
    return window_.size();
  }
  /// i-th oldest pair of the live window (diagnostics; aar_sim rules).
  [[nodiscard]] const QueryReplyPair& window_pair(std::size_t i) const noexcept {
    return window_.at(i);
  }
  /// Distinct antecedents currently in the window (counted, not yet
  /// pruned).
  [[nodiscard]] std::size_t distinct_antecedents() const noexcept {
    return counts_.size();
  }
  /// Antecedents queued for rebuild at the next snapshot (may rarely count
  /// one twice — see dirty_ below).
  [[nodiscard]] std::size_t dirty_antecedents() const noexcept {
    return dirty_.size();
  }
  [[nodiscard]] std::uint64_t evictions() const noexcept { return evictions_; }
  [[nodiscard]] std::uint64_t snapshots_taken() const noexcept {
    return snapshots_;
  }

 private:
  void count(const QueryReplyPair& pair);
  void uncount(const QueryReplyPair& pair);
  void mark_dirty(HostId antecedent, AntecedentCounts& state);
  void rebuild_antecedent(HostId antecedent);

  MinerConfig config_;
  PairRing window_;
  util::FlatCountMap<HostId, AntecedentCounts> counts_;
  /// Antecedents queued for rebuild.  The in-struct `dirty` flag keeps the
  /// hot counting path to one hash lookup; an antecedent fully evicted and
  /// then re-added between snapshots can appear twice (rebuild is
  /// idempotent, so that only costs a redundant rebuild).
  std::vector<HostId> dirty_;
  core::RuleSet ruleset_;                  // last snapshot, updated in place
  std::vector<core::Consequent> scratch_;  // reused per-antecedent rebuild
  std::uint64_t evictions_ = 0;
  std::uint64_t evictions_reported_ = 0;   // synced to obs at snapshot()
  std::uint64_t snapshots_ = 0;
};

}  // namespace aar::mining
