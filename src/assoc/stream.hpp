#pragma once
// Frequent-item mining over unbounded streams — the substrate behind the
// paper's Section VI pointer to data-stream mining (Babcock et al., PODS
// 2002, reference [18]).
//
// LossyCounter implements Manku & Motwani's Lossy Counting: with error
// parameter ε it maintains at most O(1/ε · log εN) entries and guarantees,
// after N items,
//   * no undercount worse than εN:  true_count − εN  <=  estimate  <= true_count,
//   * every item with true frequency >= εN is present in the table,
// which is exactly the budget/recall trade-off a P2P node needs to mine
// routing rules from a query stream it cannot store.
//
// The table spans two epochs.  Each entry holds the current epoch's
// Lossy Counting state (estimate and maximum undercount) and the estimate
// the key ended the previous epoch with; rotate() starts a new epoch.
// count(), upper_bound(), frequent() and items_processed() describe the
// current epoch alone, as a single-epoch counter would; counts() adds the
// previous epoch's estimate, so a windowed consumer (core::StreamingRuleset)
// reads both epochs with one probe.

#include <cstdint>
#include <utility>
#include <vector>

#include "util/flat_map.hpp"

namespace aar::assoc {

class LossyCounter {
 public:
  /// A key's estimates: `count` in the current epoch (0 when the key was
  /// not seen since the last rotate() or was pruned since), `previous` the
  /// count it ended the previous epoch with.
  struct Counts {
    std::uint64_t count = 0;
    std::uint64_t previous = 0;
    [[nodiscard]] std::uint64_t total() const noexcept { return count + previous; }
  };

  /// What one add() did to its own key.
  struct Added {
    std::uint64_t before = 0;  ///< the key's counts().total() before the item
    std::uint64_t after = 0;   ///< ... after it, the bucket's prune included
    bool pruned = false;       ///< the item closed a bucket and pruned the table
  };

  /// ε in (0, 1): the maximum undercount is ε·N after N items.  Throws
  /// std::invalid_argument for any other ε (NaN included).
  explicit LossyCounter(double epsilon);

  /// Process one stream item.  Returns true when the item closed a bucket,
  /// i.e. the table was just pruned and some estimates may have dropped.
  bool add(std::uint64_t key) {
    return add(key, [](std::uint64_t, Counts) {}).pruned;
  }

  /// As add(key), with one table probe, reporting each entry whose current
  /// count the bucket's prune removes as `on_prune(key, counts)`, with the
  /// counts it held just before (`key` itself included, when its fresh count
  /// is pruned at once).  An entry that keeps a previous-epoch count stays
  /// held with a current count of 0.
  template <typename OnPrune>
  Added add(std::uint64_t key, OnPrune&& on_prune);

  /// Start a new epoch: every current count becomes the entry's previous
  /// count, the current counts, undercounts and item count restart at 0 and
  /// the bucket at 1, and entries left with nothing are dropped.  Each kept
  /// entry is visited as `visit(key, previous)` in the same pass.
  template <typename Visit>
  void rotate(Visit&& visit);
  void rotate() {
    rotate([](std::uint64_t, std::uint64_t) {});
  }

  /// Both epochs' estimates for a key; zeros when it is not held.
  [[nodiscard]] Counts counts(std::uint64_t key) const {
    const Entry* entry = table_.find(key);
    return entry == nullptr ? Counts{} : Counts{entry->count, entry->previous};
  }

  /// Current-epoch estimate for a key; 0 when the key was pruned or not seen.
  [[nodiscard]] std::uint64_t count(std::uint64_t key) const {
    return counts(key).count;
  }

  /// Upper bound on the key's true count this epoch (estimate + maximum
  /// possible undercount for this entry).
  [[nodiscard]] std::uint64_t upper_bound(std::uint64_t key) const;

  /// All keys whose true frequency this epoch may reach `support` (as a
  /// fraction of the epoch's items): estimate >= (support - ε) · N.
  /// Guaranteed superset of the truly frequent keys.
  [[nodiscard]] std::vector<std::pair<std::uint64_t, std::uint64_t>> frequent(
      double support) const;

  /// Visit every held (key, Counts) entry, in unspecified order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    table_.for_each([&](std::uint64_t key, const Entry& entry) {
      fn(key, Counts{entry.count, entry.previous});
    });
  }

  /// Items added this epoch.
  [[nodiscard]] std::uint64_t items_processed() const noexcept { return items_; }
  /// Entries held for either epoch.
  [[nodiscard]] std::size_t table_size() const noexcept { return table_.size(); }
  [[nodiscard]] double epsilon() const noexcept { return epsilon_; }

  /// Forget both epochs; the table's storage is kept.
  void clear();

 private:
  struct Entry {
    std::uint64_t count = 0;
    std::uint64_t delta = 0;     ///< maximum undercount when inserted
    std::uint64_t previous = 0;  ///< count at the end of the previous epoch
  };

  double epsilon_;
  std::uint64_t bucket_width_;   ///< ceil(1/ε)
  std::uint64_t current_bucket_ = 1;
  std::uint64_t items_ = 0;
  /// items_ % bucket_width_, kept as a count so add() divides nothing.
  std::uint64_t in_bucket_ = 0;
  util::FlatCountMap<std::uint64_t, Entry> table_;
};

template <typename OnPrune>
LossyCounter::Added LossyCounter::add(std::uint64_t key, OnPrune&& on_prune) {
  ++items_;
  Entry& entry = table_.find_or_insert(key);
  Added added{.before = entry.count + entry.previous};
  if (entry.count == 0) {  // fresh this epoch: counted entries hold >= 1
    entry.count = 1;
    entry.delta = current_bucket_ - 1;
  } else {
    ++entry.count;
  }
  added.after = added.before + 1;
  if (++in_bucket_ != bucket_width_) return added;
  in_bucket_ = 0;
  table_.retain([&](std::uint64_t held, Entry& pruned) {
    if (pruned.count == 0 || pruned.count + pruned.delta > current_bucket_) {
      return true;
    }
    on_prune(held, Counts{pruned.count, pruned.previous});
    if (held == key) added.after = pruned.previous;
    pruned.count = 0;
    pruned.delta = 0;
    return pruned.previous != 0;
  });
  ++current_bucket_;
  added.pruned = true;
  return added;
}

template <typename Visit>
void LossyCounter::rotate(Visit&& visit) {
  table_.retain([&](std::uint64_t key, Entry& entry) {
    entry.previous = entry.count;
    entry.count = 0;
    entry.delta = 0;
    if (entry.previous == 0) return false;
    visit(key, entry.previous);
    return true;
  });
  items_ = 0;
  in_bucket_ = 0;
  current_bucket_ = 1;
}

}  // namespace aar::assoc
