#pragma once
// Association rule sets for query routing (paper Section III-B.1).
//
// Rules have the form {host1} -> {host2}: host1 is a neighbor the node
// receives queries from (the antecedent), host2 the neighbor that was the
// next hop on a path that produced hits for host1's earlier queries (the
// consequent).  A rule set is mined from a window of query–reply pairs by
// counting (source, replier) co-occurrences and support-pruning pairs seen
// fewer than a threshold number of times.

#include <cstdint>
#include <iosfwd>
#include <span>
#include <utility>
#include <vector>

#include "trace/record.hpp"

namespace aar::mining {
class IncrementalRuleMiner;  // the single befriended RuleSet writer
}  // namespace aar::mining

namespace aar::core {

class RuleProbe;  // reads the index directly to mirror it

using trace::HostId;
using trace::QueryReplyPair;

/// One consequent of an antecedent, with its support count.
struct Consequent {
  HostId neighbor = trace::kNoHost;
  std::uint32_t support = 0;

  friend bool operator==(const Consequent&, const Consequent&) = default;
};

/// Immutable mined rule set: antecedent -> consequents sorted by support
/// (descending, ties by neighbor id for determinism).
///
/// Stored flat: one open-addressing table (load at most 1/2) maps each
/// antecedent to a range of one Consequent array, so covers, matches,
/// consequents and top_k each cost one probe and no node chasing.  Ranges
/// are not kept in any order; the miner overwrites a range in place when
/// its new list fits and appends it otherwise, and the array is compacted
/// once its dead entries outnumber the live rules.  Equality, iteration
/// and save() read the logical content only, never this layout.
class RuleSet {
 public:
  RuleSet() = default;

  /// Mine a rule set from a window of pairs.  Pairs whose (source, replier)
  /// combination occurs fewer than `min_support` times are pruned — the
  /// paper's support-pruning step.  Throws std::invalid_argument unless
  /// min_support >= 1.
  ///
  /// `min_confidence` additionally prunes rules whose confidence
  /// count(source, replier) / count(source) falls below it — the
  /// confidence-based pruning the paper proposes in Section VI ("could be
  /// one way of reducing the size of rule sets while retaining high coverage
  /// and success").  0 disables it.
  [[nodiscard]] static RuleSet build(std::span<const QueryReplyPair> pairs,
                                     std::uint32_t min_support,
                                     double min_confidence = 0.0);

  /// True when some rule has this antecedent (the coverage test).
  [[nodiscard]] bool covers(HostId antecedent) const noexcept {
    return find(antecedent) != nullptr;
  }

  /// True when {antecedent} -> {consequent} is a rule (the success test).
  [[nodiscard]] bool matches(HostId antecedent, HostId consequent) const noexcept {
    for (const Consequent& c : consequents(antecedent)) {
      if (c.neighbor == consequent) return true;
    }
    return false;
  }

  /// All consequents for an antecedent, highest support first; empty span if
  /// the antecedent is unknown.  Valid until the rule set next changes.
  [[nodiscard]] std::span<const Consequent> consequents(
      HostId antecedent) const noexcept {
    const Slot* slot = find(antecedent);
    if (slot == nullptr) return {};
    return {consequents_.data() + slot->begin, slot->size};
  }

  /// The k highest-support consequents (paper: "sent to the k neighbors with
  /// the highest support"): a prefix of consequents().
  [[nodiscard]] std::vector<HostId> top_k(HostId antecedent, std::size_t k) const;

  [[nodiscard]] std::size_t num_antecedents() const noexcept { return antecedents_; }
  [[nodiscard]] std::size_t num_rules() const noexcept { return rule_count_; }
  [[nodiscard]] bool empty() const noexcept { return antecedents_ == 0; }

  /// Visit every antecedent once, in ascending id order, as
  /// `fn(antecedent, consequents)` with the consequents highest support
  /// first (tests, serialization, rule listings).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const HostId antecedent : sorted_antecedents()) {
      fn(antecedent, consequents(antecedent));
    }
  }

  /// Serialize as "antecedent,consequent,support" CSV rows (with header),
  /// deterministically ordered.  A node can persist its mined rules across
  /// restarts or ship them to a peer.
  void save(std::ostream& os) const;

  /// Inverse of save().  Throws std::runtime_error, naming the line, on
  /// malformed input, a zero support, or a repeated (antecedent,
  /// consequent) row — neither of which build() or the miner produces.
  [[nodiscard]] static RuleSet load(std::istream& is);

  /// Same rules with the same supports, whatever the storage layout.
  friend bool operator==(const RuleSet& a, const RuleSet& b);

 private:
  // RuleSet is immutable to every consumer; the incremental miner
  // (src/mining/) is its one writer, updating only changed antecedents in
  // place so snapshots avoid re-materializing the whole set.
  friend class aar::mining::IncrementalRuleMiner;
  friend class RuleProbe;

  /// One antecedent's range of consequents_; size 0 marks an empty slot
  /// (every stored antecedent has at least one rule).
  struct Slot {
    HostId antecedent = 0;
    std::uint32_t begin = 0;     ///< first consequent in consequents_
    std::uint32_t size = 0;      ///< live consequents
    std::uint32_t capacity = 0;  ///< entries reserved at begin
  };

  [[nodiscard]] std::size_t home(HostId antecedent) const noexcept {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(antecedent) * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  [[nodiscard]] const Slot* find(HostId antecedent) const noexcept {
    if (antecedents_ == 0) return nullptr;
    for (std::size_t i = home(antecedent);; i = (i + 1) & mask_) {
      const Slot& slot = index_[i];
      if (slot.size == 0) return nullptr;
      if (slot.antecedent == antecedent) return &slot;
    }
  }

  /// The antecedent's slot, or the empty slot ending its probe run (the
  /// index must be allocated).
  [[nodiscard]] std::size_t probe(HostId antecedent) const noexcept;
  /// Make `ranked` (support order, as build() sorts it) the antecedent's
  /// whole consequent list; an empty list removes the antecedent.
  void assign(HostId antecedent, std::span<const Consequent> ranked);
  /// From (antecedent, consequent) entries in any order.
  [[nodiscard]] static RuleSet from_entries(
      std::vector<std::pair<HostId, Consequent>>& entries);
  void grow_index();
  void erase_slot(std::size_t hole) noexcept;
  void compact();
  [[nodiscard]] std::vector<HostId> sorted_antecedents() const;

  std::vector<Slot> index_;             ///< zero or a power of two >= 8 slots
  std::vector<Consequent> consequents_;  ///< every range, plus dead entries
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
  std::size_t antecedents_ = 0;
  std::size_t rule_count_ = 0;
  std::size_t dead_ = 0;  ///< consequents_ entries no slot reserves
};

}  // namespace aar::core
