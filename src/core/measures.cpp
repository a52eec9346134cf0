#include "core/measures.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace aar::core {

void GuidStates::begin_block(std::size_t pairs) {
  if (pairs > std::size_t{kMaxQuery} + 1) {
    throw std::length_error("GuidStates: a block holds at most 2^30 pairs");
  }
  const std::size_t capacity =
      std::bit_ceil(std::max<std::size_t>(16, 3 * pairs));
  if (capacity > slots_.size()) {
    slots_.assign(capacity, Slot{});
    mask_ = capacity - 1;
    shift_ = 64u - static_cast<unsigned>(std::countr_zero(capacity));
  }
  if (++generation_ == 0) {  // wrapped: stale stamps could read as current
    for (Slot& slot : slots_) slot.generation = 0;
    generation_ = 1;
  }
  queries_ = 0;
}

BlockMeasures evaluate(const RuleSet& ruleset,
                       std::span<const QueryReplyPair> block) {
  GuidStates states;
  return evaluate(ruleset, block, states);
}

BlockMeasures evaluate(const RuleSet& ruleset,
                       std::span<const QueryReplyPair> block,
                       GuidStates& states) {
  return evaluate_block(
      states, block,
      [&](const QueryReplyPair& pair, std::uint32_t) {
        return ruleset.covers(pair.source_host);
      },
      [&](const QueryReplyPair& pair, std::uint32_t) {
        return ruleset.matches(pair.source_host, pair.replying_neighbor);
      },
      [](const QueryReplyPair&) {});
}

}  // namespace aar::core
