#pragma once
// Rule-set maintenance strategies (paper Sections III-B.3 – III-B.6 plus the
// Section VI streaming extension).
//
// The driver (TraceSimulator) replays the trace in blocks.  Block 0 is the
// bootstrap block every strategy may mine; each later block is first *tested*
// against the strategy's current rule set (producing the coverage / success
// measures) and then offered to the strategy, which decides whether to
// regenerate.  This matches the paper's RULESET-TEST / GENERATE-RULESET
// pseudocode: Sliding Window regenerates after every block, Lazy every P
// blocks, Adaptive only when the measured quality drops below its adaptive
// thresholds.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "assoc/stream.hpp"
#include "core/measures.hpp"
#include "core/rule_probe.hpp"
#include "core/ruleset.hpp"
#include "mining/incremental_miner.hpp"
#include "util/flat_map.hpp"
#include "util/parallel.hpp"

namespace aar::core {

using Block = std::span<const QueryReplyPair>;

class Strategy {
 public:
  /// Throws std::invalid_argument unless min_support >= 1.
  explicit Strategy(std::uint32_t min_support)
      : miner_(mining::MinerConfig{.window = 0, .min_support = min_support}) {}
  virtual ~Strategy() = default;

  Strategy(const Strategy&) = delete;
  Strategy& operator=(const Strategy&) = delete;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Called once with block 0 before any testing.  Default: mine it.
  virtual void bootstrap(Block first_block) { regenerate(first_block); }

  /// Test the current rule set against `block`, then apply the strategy's
  /// update policy.  Returns the measures of the *test* (before any update).
  virtual BlockMeasures test_block(Block block) = 0;

  /// Rule sets mined so far (bootstrap included) — the paper reports
  /// "new rule sets were generated every 1.7 blocks" from this counter.
  [[nodiscard]] std::uint64_t rulesets_generated() const noexcept {
    return rulesets_generated_;
  }
  [[nodiscard]] const RuleSet& current_ruleset() const noexcept {
    return miner_.ruleset();
  }
  [[nodiscard]] std::uint32_t min_support() const noexcept {
    return miner_.config().min_support;
  }

  /// Count blocks on `worker` while the calling thread evaluates them;
  /// nullptr restores inline counting.  Results are identical either way.
  /// The pool must outlive its attachment — core::TraceSimulator::
  /// run_parallel lends a one-worker pool for the duration of one replay.
  void attach_worker(util::ThreadPool* worker) noexcept { worker_ = worker; }
  [[nodiscard]] util::ThreadPool* worker() const noexcept { return worker_; }

 protected:
  /// Evaluate the current rule set against `block`, through its probe.
  /// With `count`, also count `block` into the spare table that the next
  /// regenerate(block) installs: on the attached worker while the
  /// evaluation runs, inline otherwise.  Counting never touches the rule
  /// set or the probe the evaluation reads (only regenerate() writes them),
  /// so the overlap is exact.  The caller's wait for the worker is timed
  /// under obs "core.count_wait".
  [[nodiscard]] BlockMeasures measure(Block block, bool count = false);

  /// Make `block` the miner's whole window and snapshot it: the spare table
  /// counted by measure(block, true) is swapped in (a block not counted yet
  /// is counted now) and the snapshot re-materializes only the antecedents
  /// whose counts changed.  Produces exactly RuleSet::build(block,
  /// min_support).  Timed under obs "core.ruleset_build".
  void regenerate(Block block);

  /// Drop the spare table's count when the block is not regenerated after
  /// all (adaptive counts every block before its measures decide).
  void discard_count() noexcept {
    spare_.counts.clear();
    counted_ = false;
  }

  /// This strategy's GUID table, reused block after block by measure() and
  /// by the prequential strategies' evaluate_block loops.
  [[nodiscard]] GuidStates& guid_states() noexcept { return guid_states_; }

 private:
  static constexpr std::size_t kCacheLine = 64;

  /// The counting worker's table, on cache lines of its own: the worker
  /// writes it while the caller evaluates, and a line shared with state the
  /// caller writes would bounce between the two cores on every probe.
  struct alignas(kCacheLine) WorkerTable {
    mining::ShardCounts counts;  ///< next window's counts; empty unless counted_
  };
  // A type aligned to a line and a whole number of lines long starts and
  // ends on line boundaries wherever it is placed, so no other member of
  // the Strategy (all of them written by the calling thread) shares a line
  // with it.  The Strategy inherits the alignment, and new honours it.
  static_assert(alignof(WorkerTable) == kCacheLine &&
                    sizeof(WorkerTable) % kCacheLine == 0,
                "the worker-written table must own every line it touches");

  mining::IncrementalRuleMiner miner_;
  RuleProbe probe_;  ///< the current rule set's probe, rebuilt by regenerate()
  GuidStates guid_states_;
  WorkerTable spare_;
  bool counted_ = false;  ///< spare_ holds the block being tested
  util::ThreadPool* worker_ = nullptr;
  std::uint64_t rulesets_generated_ = 0;
};

/// STATIC-RULESET (III-B.3): mine once from block 0, never refresh.
class StaticRuleset final : public Strategy {
 public:
  using Strategy::Strategy;
  [[nodiscard]] std::string name() const override { return "static"; }
  BlockMeasures test_block(Block block) override { return measure(block); }
};

/// SLIDING-WINDOW (III-B.4): every block b is tested against the rule set
/// mined from block b-1.
class SlidingWindow final : public Strategy {
 public:
  using Strategy::Strategy;
  [[nodiscard]] std::string name() const override { return "sliding"; }
  BlockMeasures test_block(Block block) override {
    const BlockMeasures measures = measure(block, /*count=*/true);
    regenerate(block);  // becomes the rule set for block b+1
    return measures;
  }
};

/// LAZY-SLIDING-WINDOW (III-B.5): regenerate only after the rule set has
/// been used for `period` blocks.
class LazySlidingWindow final : public Strategy {
 public:
  /// Throws std::invalid_argument for a zero `period`.
  LazySlidingWindow(std::uint32_t min_support, std::uint32_t period);
  [[nodiscard]] std::string name() const override {
    return "lazy(" + std::to_string(period_) + ")";
  }
  BlockMeasures test_block(Block block) override {
    // A regeneration block is known before the test, so only those count.
    const bool due = ++used_ >= period_;
    const BlockMeasures measures = measure(block, /*count=*/due);
    if (due) {
      regenerate(block);
      used_ = 0;
    }
    return measures;
  }
  [[nodiscard]] std::uint32_t period() const noexcept { return period_; }

 private:
  std::uint32_t period_;
  std::uint32_t used_ = 0;
};

/// ADAPTIVE-SLIDING-WINDOW (III-B.6): regenerate when measured coverage or
/// success falls below thresholds that track the mean of the previous
/// `history` measured values (initialized to `initial_threshold`, the
/// paper's 0.7, until history accumulates).  `threshold_scale` leaves a
/// small tolerance band under the running mean — with scale 1.0 roughly
/// every other block dips below its own mean and the strategy degenerates
/// toward Sliding Window.
class AdaptiveSlidingWindow final : public Strategy {
 public:
  /// Throws std::invalid_argument for a zero `history`.
  AdaptiveSlidingWindow(std::uint32_t min_support, std::size_t history,
                        double initial_threshold = 0.7,
                        double threshold_scale = 0.985);

  [[nodiscard]] std::string name() const override {
    return "adaptive(N=" + std::to_string(history_) + ")";
  }
  BlockMeasures test_block(Block block) override;

  /// Thresholds that would be applied to the next block (tests/inspection).
  [[nodiscard]] double coverage_threshold() const;
  [[nodiscard]] double success_threshold() const;

 private:
  [[nodiscard]] static double threshold_of(const std::vector<double>& window,
                                           double initial);

  std::size_t history_;
  double initial_threshold_;
  double threshold_scale_;
  std::vector<double> coverage_history_;
  std::vector<double> success_history_;
};

/// Streaming extension (Section VI): counts are updated per pair with
/// exponential decay, so the rule set is always current.  Evaluation is
/// prequential (test-then-train on each pair).  The paper reports α, ρ
/// consistently above 0.90 for this approach.
class IncrementalRuleset final : public Strategy {
 public:
  /// `half_life_pairs`: decayed count halves every this many pairs.
  /// `min_effective_support`: decayed count needed for a rule to be active.
  /// Throws std::invalid_argument unless both are positive and finite.
  IncrementalRuleset(std::uint32_t min_support, double half_life_pairs = 10'000.0,
                     double min_effective_support = 2.5);

  [[nodiscard]] std::string name() const override { return "incremental"; }
  void bootstrap(Block first_block) override;
  BlockMeasures test_block(Block block) override;

  [[nodiscard]] std::size_t active_rules() const;
  /// Active rules of one source: the count its coverage test reads.
  [[nodiscard]] std::uint32_t active_rules(HostId source) const;
  /// Decayed count of a rule as of the last sweep plus the sightings since;
  /// 0 when it is not held.
  [[nodiscard]] double decayed_count(HostId source, HostId replier) const;

 private:
  /// Test-then-train one pair with one probe of the pair table: returns
  /// whether its rule was active before the pair, then counts it.
  bool train(const QueryReplyPair& pair);
  /// Count `key` (one probe); returns whether it was active before.
  bool count(std::uint64_t key, HostId source);
  [[nodiscard]] bool rule_active(HostId source, HostId replier) const;
  [[nodiscard]] bool host_covered(HostId source) const;
  void decay_all();

  double decay_per_pair_;
  double min_effective_;
  std::uint64_t pairs_seen_ = 0;
  std::uint64_t pairs_at_last_decay_ = 0;
  // Decayed counts, dense so the decay sweep touches live entries only and
  // its multiply streams over counts_ alone: counts_[i] belongs to keys_[i]
  // (source<<32 | replier), index_of_ maps a key to its slot, and a dropped
  // entry is swap-removed from both arrays.
  std::vector<double> counts_;
  std::vector<std::uint64_t> keys_;
  util::FlatCountMap<std::uint64_t, std::uint32_t> index_of_;
  std::vector<std::size_t> marks_;  ///< decay_all's marked slots, reused
  // Each source's number of active rules, so the coverage test is one
  // lookup.  It changes only where a count crosses min_effective_: train()
  // bumps a source when one rises to it, and the decay sweep lowers one when
  // an entry decays below it or is dropped while still at or above it.
  // Only sources with an active rule have an entry.
  util::FlatCountMap<HostId, std::uint32_t> active_of_;
};

/// Streaming variant built on Lossy Counting (Manku & Motwani) instead of
/// exponential decay — the bounded-memory realization of the Section VI
/// pointer to data-stream mining [18].  One two-epoch counter rotates every
/// `epoch_pairs` items; a rule is active when its combined estimated count
/// over the current and previous epoch reaches `min_effective_support`.
/// Prequential evaluation, like IncrementalRuleset.
class StreamingRuleset final : public Strategy {
 public:
  /// Throws std::invalid_argument for a zero `epoch_pairs`, an `epsilon`
  /// outside (0, 1), or a `min_effective_support` that is not positive and
  /// finite.
  StreamingRuleset(std::uint32_t min_support, double epsilon = 1e-3,
                   std::uint64_t epoch_pairs = 10'000,
                   double min_effective_support = 3.0);

  [[nodiscard]] std::string name() const override { return "streaming"; }
  void bootstrap(Block first_block) override;
  BlockMeasures test_block(Block block) override;

  /// Pair entries held for either epoch (memory footprint probe).
  [[nodiscard]] std::size_t table_size() const { return counter_.table_size(); }
  /// The two-epoch pair counter, keyed (source << 32 | replier).
  [[nodiscard]] const assoc::LossyCounter& counter() const noexcept {
    return counter_;
  }
  /// Active rules of one source: the count its coverage test reads.
  [[nodiscard]] std::uint32_t active_rules(HostId source) const;

 private:
  /// Test-then-train one pair with one probe of the pair table: returns
  /// whether its rule was active before the pair, then counts it.
  bool train(const QueryReplyPair& pair);
  /// A combined count makes a rule active when it reaches the (possibly
  /// fractional) threshold, compared in double.
  [[nodiscard]] bool active(std::uint64_t count) const {
    return static_cast<double>(count) >= min_effective_;
  }
  [[nodiscard]] bool host_covered(HostId source) const;

  double min_effective_;
  std::uint64_t epoch_pairs_;
  std::uint64_t pairs_in_epoch_ = 0;
  assoc::LossyCounter counter_;
  // Each source's number of active rules, so the coverage test is one
  // lookup.  It changes only where a combined count crosses the threshold:
  // train() settles the trained key from its counts before and after the
  // add, a prune lowers the source of each other entry it takes from active
  // to inactive, and the epoch rotation rebuilds it in the pass that shifts
  // the counts.  Only sources with an active rule have an entry.
  util::FlatCountMap<HostId, std::uint32_t> active_of_;
};

}  // namespace aar::core
