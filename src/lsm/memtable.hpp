#pragma once
// In-memory write buffer of the lsm store: an unordered delta map from
// packed (antecedent, consequent) keys to signed running sums.  Writes
// are O(1) merges; the table is only sorted once, at flush, when drain()
// hands the run writer a strictly-ascending entry stream.
//
// Byte accounting is an estimate (hash-map node + bucket overhead per
// entry) used solely to trigger flushes; the out-of-core bench pins the
// estimate against RSS-style expectations, not byte-exact truth.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "lsm/format.hpp"

namespace aar::lsm {

class Memtable {
 public:
  /// Merge `delta` into the running sum for `key`.
  void add(Key key, std::int64_t delta) {
    auto [it, inserted] = map_.try_emplace(key, 0);
    it->second += delta;
    if (inserted) {
      ++antecedents_[key_antecedent(key)];
    }
  }

  /// Raw running sum (0 when absent); true when the key is present.
  [[nodiscard]] bool get(Key key, std::int64_t& count) const {
    const auto it = map_.find(key);
    if (it == map_.end()) return false;
    count += it->second;
    return true;
  }

  /// Whether any key for `antecedent` is buffered.
  [[nodiscard]] bool has_antecedent(HostId antecedent) const {
    return antecedents_.count(antecedent) != 0;
  }

  /// Append every buffered entry for `antecedent` (unsorted, raw sums).
  void collect_antecedent(HostId antecedent, std::vector<Entry>& out) const {
    if (!has_antecedent(antecedent)) return;
    // Inclusive bound: begin + 2^32 wraps to 0 for the top antecedent.
    const Key begin = antecedent_begin(antecedent);
    const Key last = begin | 0xffffffffull;
    for (const auto& [key, count] : map_) {
      if (key >= begin && key <= last) out.push_back(Entry{key, count});
    }
  }

  /// Append every buffered entry (unsorted, raw sums) without draining.
  void snapshot(std::vector<Entry>& out) const {
    out.reserve(out.size() + map_.size());
    for (const auto& [key, count] : map_) out.push_back(Entry{key, count});
  }

  [[nodiscard]] std::size_t entries() const noexcept { return map_.size(); }
  [[nodiscard]] bool empty() const noexcept { return map_.empty(); }

  /// Estimated resident bytes (drives the flush trigger).
  [[nodiscard]] std::size_t approximate_bytes() const noexcept {
    return map_.size() * kBytesPerEntry + antecedents_.size() * kBytesPerEntry;
  }

  /// Move every entry out in strictly ascending key order and reset.
  [[nodiscard]] std::vector<Entry> drain() {
    std::vector<Entry> out;
    out.reserve(map_.size());
    for (const auto& [key, count] : map_) out.push_back(Entry{key, count});
    std::sort(out.begin(), out.end(),
              [](const Entry& a, const Entry& b) { return a.key < b.key; });
    map_.clear();
    antecedents_.clear();
    return out;
  }

 private:
  // Node-based hash map: key + value + next pointer + bucket share.
  static constexpr std::size_t kBytesPerEntry = 48;

  std::unordered_map<Key, std::int64_t> map_;
  std::unordered_map<HostId, std::uint32_t> antecedents_;
};

}  // namespace aar::lsm
