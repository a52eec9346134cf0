#include "core/strategy.hpp"

#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>

#include "obs/registry.hpp"

namespace aar::core {

BlockMeasures Strategy::measure(Block block, bool count) {
  if (!count) return evaluate(probe_, block, guid_states_);
  if (worker_ == nullptr) {
    spare_.counts.count(block);
    counted_ = true;
    return evaluate(probe_, block, guid_states_);
  }
  worker_->submit([this, block] { spare_.counts.count(block); });
  BlockMeasures measures;
  try {
    measures = evaluate(probe_, block, guid_states_);
  } catch (...) {
    worker_->wait();  // spare_ and the block must outlive the task
    throw;
  }
  static obs::Timer& wait_timer =
      obs::Registry::global().timer("core.count_wait");
  {
    const obs::Timer::Scope scope = wait_timer.measure();
    worker_->wait();
  }
  counted_ = true;
  return measures;
}

void Strategy::regenerate(Block block) {
  static obs::Timer& build_timer =
      obs::Registry::global().timer("core.ruleset_build");
  const obs::Timer::Scope scope = build_timer.measure();
  // Slide the miner's window to exactly this block: the swapped-in counts
  // replace the previous window's, and the snapshot re-materializes only
  // antecedents whose counts actually changed.
  if (!counted_) spare_.counts.count(block);
  counted_ = false;
  miner_.replace_window(block, spare_.counts);
  probe_.assign(miner_.snapshot());
  ++rulesets_generated_;
}

namespace {
constexpr std::uint64_t pair_key(HostId source, HostId replier) noexcept {
  return (static_cast<std::uint64_t>(source) << 32) | replier;
}
constexpr HostId source_of(std::uint64_t key) noexcept {
  return static_cast<HostId>(key >> 32);
}
/// Batch-decay stride, in pairs.  Counts are exact at sweep boundaries and at
/// most one stride stale in between — negligible against block-scale dynamics.
constexpr std::uint64_t kDecayStride = 1'000;
/// Entries decayed below this are dropped from the tables.
constexpr double kDropEpsilon = 0.05;

/// Rejects a rule threshold that is NaN, infinite or not positive: NaN and
/// infinity never activate a rule, and at or below 0 every unseen pair
/// would count as a rule without its source ever being counted.
void check_min_effective(const char* strategy, double min_effective_support) {
  if (!(min_effective_support > 0.0) || !std::isfinite(min_effective_support)) {
    throw std::invalid_argument(
        std::string(strategy) +
        ": min_effective_support must be positive and finite, got " +
        std::to_string(min_effective_support));
  }
}

/// One of `source`'s rules stopped counting; a source left with none loses
/// its entry.
void lower(util::FlatCountMap<HostId, std::uint32_t>& active_of, HostId source) {
  std::uint32_t* active = active_of.find(source);
  if (--*active == 0) active_of.erase(source);
}

std::uint32_t active_of_source(const util::FlatCountMap<HostId, std::uint32_t>& active_of,
                               HostId source) {
  const std::uint32_t* active = active_of.find(source);
  return active == nullptr ? 0 : *active;
}
}  // namespace

// ------------------------------------------------------------ lazy/adaptive

LazySlidingWindow::LazySlidingWindow(std::uint32_t min_support,
                                     std::uint32_t period)
    : Strategy(min_support), period_(period) {
  if (period_ == 0) {
    throw std::invalid_argument("LazySlidingWindow: period must be positive");
  }
}

AdaptiveSlidingWindow::AdaptiveSlidingWindow(std::uint32_t min_support,
                                             std::size_t history,
                                             double initial_threshold,
                                             double threshold_scale)
    : Strategy(min_support),
      history_(history),
      initial_threshold_(initial_threshold),
      threshold_scale_(threshold_scale) {
  if (history_ == 0) {
    throw std::invalid_argument(
        "AdaptiveSlidingWindow: history must be positive");
  }
}

double AdaptiveSlidingWindow::threshold_of(const std::vector<double>& window,
                                           double initial) {
  if (window.empty()) return initial;
  const double sum = std::accumulate(window.begin(), window.end(), 0.0);
  return sum / static_cast<double>(window.size());
}

double AdaptiveSlidingWindow::coverage_threshold() const {
  return threshold_scale_ * threshold_of(coverage_history_, initial_threshold_);
}

double AdaptiveSlidingWindow::success_threshold() const {
  return threshold_scale_ * threshold_of(success_history_, initial_threshold_);
}

BlockMeasures AdaptiveSlidingWindow::test_block(Block block) {
  const double ct = coverage_threshold();
  const double st = success_threshold();
  // Whether this block regenerates is known only from its measures, so it
  // is counted speculatively and the count dropped when the rules stay.
  const BlockMeasures measures = measure(block, /*count=*/true);

  auto push = [this](std::vector<double>& window, double value) {
    window.push_back(value);
    if (window.size() > history_) window.erase(window.begin());
  };
  push(coverage_history_, measures.coverage());
  push(success_history_, measures.success());

  if (measures.coverage() < ct || measures.success() < st) {
    regenerate(block);  // refresh from the block that exposed the staleness
  } else {
    discard_count();
  }
  return measures;
}

// -------------------------------------------------------------- incremental

IncrementalRuleset::IncrementalRuleset(std::uint32_t min_support,
                                       double half_life_pairs,
                                       double min_effective_support)
    : Strategy(min_support), min_effective_(min_effective_support) {
  // Negated so NaN fails too.
  if (!(half_life_pairs > 0.0) || !std::isfinite(half_life_pairs)) {
    throw std::invalid_argument(
        "IncrementalRuleset: half_life_pairs must be positive and finite, got " +
        std::to_string(half_life_pairs));
  }
  check_min_effective("IncrementalRuleset", min_effective_support);
  decay_per_pair_ = std::exp2(-1.0 / half_life_pairs);
}

void IncrementalRuleset::bootstrap(Block first_block) {
  // No mined rule set — warm the decayed counts with the bootstrap block.
  for (const QueryReplyPair& pair : first_block) train(pair);
}

bool IncrementalRuleset::train(const QueryReplyPair& pair) {
  const std::uint64_t key = pair_key(pair.source_host, pair.replying_neighbor);
  if (++pairs_seen_ - pairs_at_last_decay_ >= kDecayStride) {
    // The test reads the counts as they stood before the pair, so a sweep
    // due now runs between the test and the count (once in 1,000 pairs).
    const bool was_active = rule_active(pair.source_host, pair.replying_neighbor);
    decay_all();
    count(key, pair.source_host);
    return was_active;
  }
  return count(key, pair.source_host);
}

bool IncrementalRuleset::count(std::uint64_t key, HostId source) {
  const std::size_t held = index_of_.size();
  std::uint32_t& index = index_of_.find_or_insert(key);
  const bool fresh = index_of_.size() != held;
  if (fresh) {
    index = static_cast<std::uint32_t>(counts_.size());
    counts_.push_back(0.0);
    keys_.push_back(key);
  }
  double& count = counts_[index];
  const bool was_active = !fresh && count >= min_effective_;
  count += 1.0;
  if (!was_active && count >= min_effective_) {
    ++active_of_.find_or_insert(source);
  }
  return was_active;
}

void IncrementalRuleset::decay_all() {
  const double factor = std::pow(decay_per_pair_,
                                 static_cast<double>(pairs_seen_ - pairs_at_last_decay_));
  pairs_at_last_decay_ = pairs_seen_;
  // Decay and drop the dead, so departed hosts and dead rules do not
  // accumulate.  The first pass streams over the counts alone: it decays
  // each one and marks, without branching, the few entries that stop
  // counting (active before, below the threshold or the drop floor after;
  // counts only fall here) or are to be dropped.  A mark is the slot index
  // times two, plus one when the entry stops counting.
  const std::size_t held = counts_.size();
  marks_.resize(held);
  double* const counts = counts_.data();
  std::size_t* const marks = marks_.data();
  const double threshold = min_effective_;
  std::size_t marked = 0;
  for (std::size_t i = 0; i < held; ++i) {
    const double old = counts[i];
    const double count = old * factor;
    counts[i] = count;
    const bool dropped = count < kDropEpsilon;
    const bool stops = (old >= threshold) & ((count < threshold) | dropped);
    marks[marked] = 2 * i + stops;
    marked += dropped | stops;
  }
  // The marked entries, last slot first, so a swap-remove only moves an
  // entry that is unmarked or already handled into the freed slot.
  for (std::size_t k = marked; k-- > 0;) {
    const std::size_t i = marks[k] / 2;
    if (marks[k] % 2 != 0) lower(active_of_, source_of(keys_[i]));
    if (counts_[i] >= kDropEpsilon) continue;
    index_of_.erase(keys_[i]);
    if (i + 1 != counts_.size()) {
      counts_[i] = counts_.back();
      keys_[i] = keys_.back();
      *index_of_.find(keys_[i]) = static_cast<std::uint32_t>(i);
    }
    counts_.pop_back();
    keys_.pop_back();
  }
}

bool IncrementalRuleset::rule_active(HostId source, HostId replier) const {
  return decayed_count(source, replier) >= min_effective_;
}

double IncrementalRuleset::decayed_count(HostId source, HostId replier) const {
  const std::uint32_t* index = index_of_.find(pair_key(source, replier));
  return index == nullptr ? 0.0 : counts_[*index];
}

std::uint32_t IncrementalRuleset::active_rules(HostId source) const {
  return active_of_source(active_of_, source);
}

bool IncrementalRuleset::host_covered(HostId source) const {
  return active_of_.find(source) != nullptr;
}

std::size_t IncrementalRuleset::active_rules() const {
  std::size_t rules = 0;
  active_of_.for_each([&](HostId, std::uint32_t active) { rules += active; });
  return rules;
}

BlockMeasures IncrementalRuleset::test_block(Block block) {
  // Prequential evaluation: each pair is tested against the rules as they
  // stood *before* it arrived, then used to update them.
  return evaluate_block(
      guid_states(), block,
      [this](const QueryReplyPair& pair, std::uint32_t) {
        return host_covered(pair.source_host);
      },
      [this](const QueryReplyPair& pair, std::uint32_t) { return train(pair); });
}

// --------------------------------------------------------------- streaming

StreamingRuleset::StreamingRuleset(std::uint32_t min_support, double epsilon,
                                   std::uint64_t epoch_pairs,
                                   double min_effective_support)
    : Strategy(min_support),
      min_effective_(min_effective_support),
      epoch_pairs_(epoch_pairs),
      counter_(epsilon) {
  if (epoch_pairs_ == 0) {
    throw std::invalid_argument("StreamingRuleset: epoch_pairs must be positive");
  }
  check_min_effective("StreamingRuleset", min_effective_support);
}

void StreamingRuleset::bootstrap(Block first_block) {
  for (const QueryReplyPair& pair : first_block) train(pair);
}

bool StreamingRuleset::host_covered(HostId source) const {
  return active_of_.find(source) != nullptr;
}

std::uint32_t StreamingRuleset::active_rules(HostId source) const {
  return active_of_source(active_of_, source);
}

bool StreamingRuleset::train(const QueryReplyPair& pair) {
  const std::uint64_t key = pair_key(pair.source_host, pair.replying_neighbor);
  // A prune takes an entry's combined count down to its previous count.
  // The trained key is settled once, from its counts before and after the
  // whole add, so its own prune is skipped here.  It never falls: the only
  // key its own add prunes is one counted fresh (count 1) by the bucket's
  // last item, which is left with its previous count, i.e. `before`.
  const assoc::LossyCounter::Added added = counter_.add(
      key, [&](std::uint64_t pruned, assoc::LossyCounter::Counts counts) {
        if (pruned != key && active(counts.total()) && !active(counts.previous)) {
          lower(active_of_, source_of(pruned));
        }
      });
  if (!active(added.before) && active(added.after)) {
    ++active_of_.find_or_insert(pair.source_host);
  }
  if (++pairs_in_epoch_ >= epoch_pairs_) {
    pairs_in_epoch_ = 0;
    active_of_.clear();
    counter_.rotate([this](std::uint64_t held, std::uint64_t previous) {
      if (active(previous)) ++active_of_.find_or_insert(source_of(held));
    });
  }
  return active(added.before);
}

BlockMeasures StreamingRuleset::test_block(Block block) {
  return evaluate_block(
      guid_states(), block,
      [this](const QueryReplyPair& pair, std::uint32_t) {
        return host_covered(pair.source_host);
      },
      [this](const QueryReplyPair& pair, std::uint32_t) { return train(pair); });
}

}  // namespace aar::core
