#include "core/strategy.hpp"

#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/registry.hpp"

namespace aar::core {

BlockMeasures Strategy::measure(Block block, bool count) {
  if (!count) return evaluate(current(), block, guid_states_);
  if (worker_ == nullptr) {
    spare_.count(block);
    counted_ = true;
    return evaluate(current(), block, guid_states_);
  }
  worker_->submit([this, block] { spare_.count(block); });
  BlockMeasures measures;
  try {
    measures = evaluate(current(), block, guid_states_);
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
  if (!counted_) spare_.count(block);
  counted_ = false;
  mining::ShardCounts* const tables[] = {&spare_};
  miner_.replace_window(block, tables);
  miner_.snapshot();
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
  decay_per_pair_ = std::exp2(-1.0 / half_life_pairs);
}

void IncrementalRuleset::bootstrap(Block first_block) {
  // No mined rule set — warm the decayed counts with the bootstrap block.
  for (const QueryReplyPair& pair : first_block) train(pair);
}

void IncrementalRuleset::train(const QueryReplyPair& pair) {
  ++pairs_seen_;
  if (pairs_seen_ - pairs_at_last_decay_ >= kDecayStride) decay_all();
  const std::uint64_t key = pair_key(pair.source_host, pair.replying_neighbor);
  const std::size_t held = index_of_.size();
  std::uint32_t& index = index_of_.find_or_insert(key);
  const bool fresh = index_of_.size() != held;
  if (fresh) {
    index = static_cast<std::uint32_t>(entries_.size());
    entries_.push_back(Decayed{key, 0.0});
  }
  double& count = entries_[index].count;
  const bool was_active = !fresh && count >= min_effective_;
  count += 1.0;
  if (!was_active && count >= min_effective_) {
    ++active_of_.find_or_insert(pair.source_host);
  }
}

void IncrementalRuleset::decay_all() {
  const double factor = std::pow(decay_per_pair_,
                                 static_cast<double>(pairs_seen_ - pairs_at_last_decay_));
  pairs_at_last_decay_ = pairs_seen_;
  // Decay, drop the dead, and recount the surviving active rules per source
  // in one sweep, so departed hosts and dead rules do not accumulate.
  active_of_.clear();
  for (std::size_t i = 0; i < entries_.size();) {
    Decayed& entry = entries_[i];
    entry.count *= factor;
    if (entry.count < kDropEpsilon) {
      // Swap-remove: the last entry, not swept yet, takes slot i next.
      index_of_.erase(entry.key);
      if (i + 1 != entries_.size()) {
        entry = entries_.back();
        *index_of_.find(entry.key) = static_cast<std::uint32_t>(i);
      }
      entries_.pop_back();
      continue;
    }
    if (entry.count >= min_effective_) {
      ++active_of_.find_or_insert(source_of(entry.key));
    }
    ++i;
  }
}

bool IncrementalRuleset::rule_active(HostId source, HostId replier) const {
  const std::uint32_t* index = index_of_.find(pair_key(source, replier));
  return index != nullptr && entries_[*index].count >= min_effective_;
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
      [this](const QueryReplyPair& pair, std::uint32_t) {
        return rule_active(pair.source_host, pair.replying_neighbor);
      },
      [this](const QueryReplyPair& pair) { train(pair); });
}

// --------------------------------------------------------------- streaming

StreamingRuleset::StreamingRuleset(std::uint32_t min_support, double epsilon,
                                   std::uint64_t epoch_pairs,
                                   double min_effective_support)
    : Strategy(min_support),
      min_effective_(min_effective_support),
      epoch_pairs_(epoch_pairs),
      current_(epsilon),
      previous_(epsilon) {
  if (epoch_pairs_ == 0) {
    throw std::invalid_argument("StreamingRuleset: epoch_pairs must be positive");
  }
}

void StreamingRuleset::bootstrap(Block first_block) {
  for (const QueryReplyPair& pair : first_block) train(pair);
}

std::uint64_t StreamingRuleset::pair_count(HostId source, HostId replier) const {
  const std::uint64_t key = pair_key(source, replier);
  return current_.count(key) + previous_.count(key);
}

bool StreamingRuleset::host_covered(HostId source) const {
  return active_of_.find(source) != nullptr;
}

void StreamingRuleset::recount_active() {
  active_of_.clear();
  current_.for_each([&](std::uint64_t key, std::uint64_t count) {
    if (active(count + previous_.count(key))) {
      ++active_of_.find_or_insert(source_of(key));
    }
  });
  previous_.for_each([&](std::uint64_t key, std::uint64_t count) {
    if (current_.count(key) == 0 && active(count)) {
      ++active_of_.find_or_insert(source_of(key));
    }
  });
}

void StreamingRuleset::train(const QueryReplyPair& pair) {
  const std::uint64_t key = pair_key(pair.source_host, pair.replying_neighbor);
  const std::uint64_t before = current_.count(key) + previous_.count(key);
  bool recount = current_.add(key);  // a prune may have lowered counts
  if (++pairs_in_epoch_ >= epoch_pairs_) {
    pairs_in_epoch_ = 0;
    std::swap(current_, previous_);
    current_.clear();
    recount = true;
  }
  if (recount) {
    recount_active();
  } else if (!active(before) && active(before + 1)) {
    ++active_of_.find_or_insert(pair.source_host);
  }
}

BlockMeasures StreamingRuleset::test_block(Block block) {
  return evaluate_block(
      guid_states(), block,
      [this](const QueryReplyPair& pair, std::uint32_t) {
        return host_covered(pair.source_host);
      },
      [this](const QueryReplyPair& pair, std::uint32_t) {
        return rule_active(pair.source_host, pair.replying_neighbor);
      },
      [this](const QueryReplyPair& pair) { train(pair); });
}

}  // namespace aar::core
