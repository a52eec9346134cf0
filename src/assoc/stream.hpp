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

#include <cstdint>
#include <utility>
#include <vector>

#include "util/flat_map.hpp"

namespace aar::assoc {

class LossyCounter {
 public:
  /// ε in (0, 1): the maximum undercount is ε·N after N items.  Throws
  /// std::invalid_argument for any other ε (NaN included).
  explicit LossyCounter(double epsilon);

  /// Process one stream item.  Returns true when the item closed a bucket,
  /// i.e. the table was just pruned and some estimates may have dropped.
  bool add(std::uint64_t key);

  /// Current estimate for a key; 0 when the key was pruned or never seen.
  [[nodiscard]] std::uint64_t count(std::uint64_t key) const;

  /// Upper bound on the true count (estimate + maximum possible undercount
  /// for this entry).
  [[nodiscard]] std::uint64_t upper_bound(std::uint64_t key) const;

  /// All keys whose true frequency may reach `support` (as a fraction of the
  /// stream): estimate >= (support - ε) · N.  Guaranteed superset of the
  /// truly frequent keys.
  [[nodiscard]] std::vector<std::pair<std::uint64_t, std::uint64_t>> frequent(
      double support) const;

  /// Visit every held (key, estimate) entry, in unspecified order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    table_.for_each([&](std::uint64_t key, const Entry& entry) {
      fn(key, entry.count);
    });
  }

  [[nodiscard]] std::uint64_t items_processed() const noexcept { return items_; }
  [[nodiscard]] std::size_t table_size() const noexcept { return table_.size(); }
  [[nodiscard]] double epsilon() const noexcept { return epsilon_; }

  /// Forget everything (epoch rotation); the table's storage is kept.
  void clear();

 private:
  struct Entry {
    std::uint64_t count = 0;
    std::uint64_t delta = 0;  ///< maximum undercount when inserted
  };

  void prune();

  double epsilon_;
  std::uint64_t bucket_width_;   ///< ceil(1/ε)
  std::uint64_t current_bucket_ = 1;
  std::uint64_t items_ = 0;
  util::FlatCountMap<std::uint64_t, Entry> table_;
};

}  // namespace aar::assoc
