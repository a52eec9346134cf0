#include "mining/incremental_miner.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

#include "obs/registry.hpp"

namespace aar::mining {

// ------------------------------------------------------------------ PairRing

void PairRing::push_back(const QueryReplyPair& pair) {
  if (count_ == slots_.size()) grow();
  slots_[(head_ + count_) & (slots_.size() - 1)] = pair;
  ++count_;
}

void PairRing::pop_front() noexcept {
  assert(count_ > 0);
  head_ = (head_ + 1) & (slots_.size() - 1);
  --count_;
}

void PairRing::grow() {
  const std::size_t capacity = std::max<std::size_t>(16, slots_.size() * 2);
  std::vector<QueryReplyPair> fresh(capacity);
  for (std::size_t i = 0; i < count_; ++i) fresh[i] = at(i);
  slots_ = std::move(fresh);
  head_ = 0;
}

// -------------------------------------------------------- IncrementalRuleMiner

IncrementalRuleMiner::IncrementalRuleMiner(MinerConfig config)
    : config_(config) {
  if (config_.min_support < 1) {
    throw std::invalid_argument("IncrementalRuleMiner: min_support must be >= 1");
  }
}

void IncrementalRuleMiner::mark_dirty(HostId antecedent,
                                      AntecedentCounts& state) {
  if (!state.dirty) {
    state.dirty = true;
    dirty_.push_back(antecedent);
  }
}

void IncrementalRuleMiner::count(const QueryReplyPair& pair) {
  AntecedentCounts& state = counts_.find_or_insert(pair.source_host);
  ++state.consequents.find_or_insert(pair.replying_neighbor);
  ++state.total;
  mark_dirty(pair.source_host, state);
}

void IncrementalRuleMiner::uncount(const QueryReplyPair& pair) {
  AntecedentCounts* state = counts_.find(pair.source_host);
  assert(state != nullptr);
  // Queue before a potential erase: a fully evicted antecedent must still
  // reach the next snapshot so its rules disappear.
  mark_dirty(pair.source_host, *state);
  std::uint32_t* support = state->consequents.find(pair.replying_neighbor);
  assert(support != nullptr && *support > 0);
  if (--*support == 0) state->consequents.erase(pair.replying_neighbor);
  if (--state->total == 0) counts_.erase(pair.source_host);
}

void IncrementalRuleMiner::add(const QueryReplyPair& pair) {
  if (config_.window != 0 && window_.size() >= config_.window) evict_oldest();
  window_.push_back(pair);
  count(pair);
}

void IncrementalRuleMiner::add(std::span<const QueryReplyPair> block) {
  for (const QueryReplyPair& pair : block) add(pair);
}

void IncrementalRuleMiner::evict_oldest() {
  if (window_.empty()) return;
  uncount(window_.front());
  window_.pop_front();
  ++evictions_;  // obs sync happens at snapshot() — hot path stays lean
}

void IncrementalRuleMiner::evict_to(std::size_t target) {
  while (window_.size() > target) evict_oldest();
}

std::size_t IncrementalRuleMiner::purge_host(HostId host) {
  std::size_t touched = 0;
  for (std::size_t i = 0; i < window_.size(); ++i) {
    const QueryReplyPair& pair = window_.at(i);
    if (pair.source_host == host || pair.replying_neighbor == host) ++touched;
  }
  if (touched == 0) return 0;
  // Rebuild the window without the host's pairs.  Purges happen on churn
  // epochs, not per message, so the O(window) rebuild is fine; re-adding
  // marks the surviving antecedents dirty so the next snapshot is exact.
  std::vector<QueryReplyPair> survivors;
  survivors.reserve(window_.size() - touched);
  for (std::size_t i = 0; i < window_.size(); ++i) {
    const QueryReplyPair& pair = window_.at(i);
    if (pair.source_host != host && pair.replying_neighbor != host) {
      survivors.push_back(pair);
    }
  }
  clear();
  for (const QueryReplyPair& pair : survivors) {
    window_.push_back(pair);
    count(pair);
  }
  return touched;
}

void IncrementalRuleMiner::replace_window(std::span<const QueryReplyPair> block,
                                          ShardCounts& counts) {
  // Serial add(block) + evict_to(block.size()) marks dirty every antecedent
  // of the outgoing window (the current counts_ domain) and every antecedent
  // of the incoming block.  An antecedent present in both is queued twice
  // (the old entry leaves with its dirty flag) — rebuild is idempotent, so
  // duplicates only cost a redundant rebuild.
  counts_.for_each([this](HostId antecedent, AntecedentCounts& state) {
    mark_dirty(antecedent, state);
  });
  evictions_ += window_.size();  // the old window retires wholesale
  window_.clear();
  for (const QueryReplyPair& pair : block) window_.push_back(pair);

  // The table already holds the whole count: take it as is and hand the
  // retired table back cleared, for the caller to count into next.
  std::swap(counts_, counts.counts_);
  counts.clear();
  counts_.for_each([this](HostId antecedent, AntecedentCounts& state) {
    mark_dirty(antecedent, state);
  });
}

void IncrementalRuleMiner::clear() {
  // Every antecedent that had rules must vanish from the next snapshot.
  counts_.for_each([this](HostId antecedent, AntecedentCounts& state) {
    mark_dirty(antecedent, state);
  });
  counts_.clear();
  window_.clear();
}

void IncrementalRuleMiner::rebuild_antecedent(HostId antecedent) {
  scratch_.clear();
  AntecedentCounts* state = counts_.find(antecedent);
  if (state != nullptr) {
    state->dirty = false;
    const auto total = static_cast<double>(state->total);
    state->consequents.for_each([&](HostId neighbor, std::uint32_t support) {
      if (support < config_.min_support) return;  // support pruning
      if (config_.min_confidence > 0.0) {         // confidence pruning (§VI)
        const double confidence = static_cast<double>(support) / total;
        if (confidence + 1e-12 < config_.min_confidence) return;
      }
      scratch_.push_back(core::Consequent{neighbor, support});
    });
    std::sort(scratch_.begin(), scratch_.end(),
              [](const core::Consequent& a, const core::Consequent& b) {
                if (a.support != b.support) return a.support > b.support;
                return a.neighbor < b.neighbor;
              });
  }

  ruleset_.assign(antecedent, scratch_);  // empty: the antecedent leaves
}

const core::RuleSet& IncrementalRuleMiner::snapshot() {
  auto& registry = obs::Registry::global();
  static obs::Timer& snapshot_timer = registry.timer("mining.snapshot");
  static obs::Gauge& antecedent_gauge = registry.gauge("mining.antecedents");
  static obs::Counter& evicted = registry.counter("mining.evictions");
  const obs::Timer::Scope scope = snapshot_timer.measure();
  for (const HostId antecedent : dirty_) rebuild_antecedent(antecedent);
  dirty_.clear();
  ++snapshots_;
  antecedent_gauge.set(static_cast<double>(counts_.size()));
  evicted.add(evictions_ - evictions_reported_);
  evictions_reported_ = evictions_;
  return ruleset_;
}

}  // namespace aar::mining
