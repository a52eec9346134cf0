#include "assoc/stream.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

namespace aar::assoc {

LossyCounter::LossyCounter(double epsilon) : epsilon_(epsilon) {
  // Negated so NaN fails too; ε = 0 would make the bucket width infinite.
  if (!(epsilon > 0.0 && epsilon < 1.0)) {
    throw std::invalid_argument("LossyCounter: epsilon must be in (0, 1), got " +
                                std::to_string(epsilon));
  }
  bucket_width_ = static_cast<std::uint64_t>(std::ceil(1.0 / epsilon));
}

std::uint64_t LossyCounter::upper_bound(std::uint64_t key) const {
  const Entry* entry = table_.find(key);
  // A key not counted this epoch may have been pruned in any bucket so far.
  return entry == nullptr || entry->count == 0 ? current_bucket_ - 1
                                               : entry->count + entry->delta;
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> LossyCounter::frequent(
    double support) const {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> result;
  const double threshold =
      (support - epsilon_) * static_cast<double>(items_);
  table_.for_each([&](std::uint64_t key, const Entry& entry) {
    if (entry.count != 0 && static_cast<double>(entry.count) >= threshold) {
      result.emplace_back(key, entry.count);
    }
  });
  return result;
}

void LossyCounter::clear() {
  table_.clear();
  items_ = 0;
  current_bucket_ = 1;
}

}  // namespace aar::assoc
