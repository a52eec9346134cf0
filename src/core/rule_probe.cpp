#include "core/rule_probe.hpp"

#include <algorithm>
#include <bit>

namespace aar::core {

void WindowSet::assign(std::span<std::uint64_t> keys) {
  // An empty slot holds a value that is no key: all ones unless that is a
  // key (only a rule of trace::kNoHost to itself), else the largest free
  // value below it, found by walking down the keys sorted.
  empty_ = ~std::uint64_t{0};
  if (std::find(keys.begin(), keys.end(), empty_) != keys.end()) {
    std::sort(keys.begin(), keys.end());
    for (auto key = keys.rbegin(); key != keys.rend() && *key == empty_; ++key) {
      --empty_;
    }
  }
  std::size_t capacity = std::bit_ceil(std::max<std::size_t>(16, 4 * keys.size()));
  for (unsigned growth = 0;; ++growth, capacity *= 2) {
    slots_.assign(capacity + kWindow - 1, empty_);
    overflow_.clear();
    shift_ = 64u - static_cast<unsigned>(std::countr_zero(capacity));
    if (fill(keys, /*spill=*/growth == kMaxGrowth)) return;
  }
}

bool WindowSet::fill(std::span<const std::uint64_t> keys, bool spill) {
  for (const std::uint64_t key : keys) {
    std::uint64_t* const window = slots_.data() + home(key, shift_);
    std::uint64_t* const free = std::find(window, window + kWindow, empty_);
    if (free != window + kWindow) {
      *free = key;
    } else if (spill) {
      overflow_.push_back(key);
    } else {
      return false;  // the window overflowed: grow and refill
    }
  }
  return true;
}

void RuleProbe::assign(const RuleSet& rules) {
  // Straight from the rule set's index, in slot order: the tables need no
  // order, so the sorted walk of RuleSet::for_each is not paid for.
  antecedent_keys_.clear();
  rule_keys_.clear();
  for (const RuleSet::Slot& slot : rules.index_) {
    if (slot.size == 0) continue;
    antecedent_keys_.push_back(slot.antecedent);
    for (const Consequent& c :
         std::span(rules.consequents_).subspan(slot.begin, slot.size)) {
      rule_keys_.push_back(pair_key(slot.antecedent, c.neighbor));
    }
  }
  antecedents_.assign(antecedent_keys_);
  rules_.assign(rule_keys_);
}

}  // namespace aar::core
