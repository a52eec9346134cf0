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

bool LossyCounter::add(std::uint64_t key) {
  ++items_;
  Entry& entry = table_.find_or_insert(key);
  if (entry.count == 0) {  // fresh: held entries always count >= 1
    entry.count = 1;
    entry.delta = current_bucket_ - 1;
  } else {
    ++entry.count;
  }
  if (items_ % bucket_width_ != 0) return false;
  prune();
  ++current_bucket_;
  return true;
}

void LossyCounter::prune() {
  table_.retain([this](std::uint64_t, const Entry& entry) {
    return entry.count + entry.delta > current_bucket_;
  });
}

std::uint64_t LossyCounter::count(std::uint64_t key) const {
  const Entry* entry = table_.find(key);
  return entry == nullptr ? 0 : entry->count;
}

std::uint64_t LossyCounter::upper_bound(std::uint64_t key) const {
  const Entry* entry = table_.find(key);
  return entry == nullptr ? current_bucket_ - 1 : entry->count + entry->delta;
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> LossyCounter::frequent(
    double support) const {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> result;
  const double threshold =
      (support - epsilon_) * static_cast<double>(items_);
  table_.for_each([&](std::uint64_t key, const Entry& entry) {
    if (static_cast<double>(entry.count) >= threshold) {
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
