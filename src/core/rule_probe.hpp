#pragma once
// Fixed-window membership tables for the per-pair evaluation kernel.
//
// The paper's RULESET-TEST asks two questions of every pair of a test block:
// is the query's source an antecedent (coverage, Eq. 1), and is (source,
// replying neighbor) a rule (success, Eq. 2).  RuleSet answers both by
// probing its antecedent index and then scanning the antecedent's consequent
// range: a loop whose exit depends on the data, so on a replay the branch
// predictor misses wherever the answer changes.  RuleProbe answers each with
// one fixed-window probe: every key sits within kWindow slots of its home,
// so a lookup compares exactly kWindow slots, takes no early exit and has no
// data-dependent branch.
//
// The table lives beside the RuleSet it mirrors, not in it: a Strategy
// rebuilds its probe from its ~150 rules whenever it regenerates, and the
// per-peer rule sets of the overlay simulator carry nothing extra.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/ruleset.hpp"

namespace aar::core {

/// A set of 64-bit keys in which each key sits within kWindow slots of its
/// home slot.  The slot array holds capacity() + kWindow - 1 entries, so a
/// window never wraps.  Empty slots hold a value that is no member; a key
/// equal to it is answered "absent" by one extra compare.
class WindowSet {
 public:
  static constexpr std::size_t kWindow = 8;
  /// Doublings past the initial size before keys that still overflow their
  /// window go to the overflow list instead: keys chosen to share the top
  /// bits of their hash cannot make the table grow without bound.
  static constexpr unsigned kMaxGrowth = 3;

  WindowSet() { assign({}); }

  /// Make `keys` (distinct, in any order) the whole set.  The table starts
  /// at load at most 1/4 and doubles until every key fits in its home
  /// window, at most kMaxGrowth times.  May reorder `keys`.
  void assign(std::span<std::uint64_t> keys);

  [[nodiscard]] bool contains(std::uint64_t key) const noexcept {
    const std::uint64_t* window = slots_.data() + home(key, shift_);
    bool found = false;
    for (std::size_t i = 0; i < kWindow; ++i) found |= window[i] == key;
    for (const std::uint64_t held : overflow_) found |= held == key;
    return found & (key != empty_);
  }

  /// Home slots (the slot array holds kWindow - 1 more).
  [[nodiscard]] std::size_t capacity() const noexcept {
    return slots_.size() - (kWindow - 1);
  }
  /// Keys that fit no window even after kMaxGrowth doublings (empty unless
  /// the keys were chosen to collide).
  [[nodiscard]] std::size_t overflowed() const noexcept { return overflow_.size(); }

  /// The home slot of `key` in a table of 2^(64 - shift) home slots: a
  /// Fibonacci hash, so a key's home is the top bits of its product.
  [[nodiscard]] static std::size_t home(std::uint64_t key, unsigned shift) noexcept {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> shift);
  }

 private:
  /// Place every key, or return false at the first that fits no window
  /// (with `spill`, put that one on the overflow list instead).
  [[nodiscard]] bool fill(std::span<const std::uint64_t> keys, bool spill);

  std::vector<std::uint64_t> slots_;
  std::vector<std::uint64_t> overflow_;
  unsigned shift_ = 64;
  std::uint64_t empty_ = 0;
};

/// The coverage and success tests of one RuleSet, each one WindowSet probe.
/// Answers exactly what RuleSet::covers and RuleSet::matches answer for the
/// rule set last assigned.
class RuleProbe {
 public:
  RuleProbe() = default;
  explicit RuleProbe(const RuleSet& rules) { assign(rules); }

  /// Mirror `rules` (reusing this probe's storage).
  void assign(const RuleSet& rules);

  /// True when some rule has this antecedent (the coverage test).
  [[nodiscard]] bool covers(HostId antecedent) const noexcept {
    return antecedents_.contains(antecedent);
  }
  /// True when {antecedent} -> {consequent} is a rule (the success test).
  [[nodiscard]] bool matches(HostId antecedent, HostId consequent) const noexcept {
    return rules_.contains(pair_key(antecedent, consequent));
  }

  /// The two tables (tests and footprint).
  [[nodiscard]] const WindowSet& antecedents() const noexcept { return antecedents_; }
  [[nodiscard]] const WindowSet& rules() const noexcept { return rules_; }

  [[nodiscard]] static constexpr std::uint64_t pair_key(HostId antecedent,
                                                        HostId consequent) noexcept {
    return (static_cast<std::uint64_t>(antecedent) << 32) | consequent;
  }

 private:
  WindowSet antecedents_;
  WindowSet rules_;
  std::vector<std::uint64_t> antecedent_keys_;  ///< assign()'s scratch, reused
  std::vector<std::uint64_t> rule_keys_;
};

}  // namespace aar::core
