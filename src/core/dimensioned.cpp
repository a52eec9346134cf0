#include "core/dimensioned.hpp"

#include <algorithm>
#include <cassert>
#include <map>

namespace aar::core {

DimensionedRuleSet DimensionedRuleSet::build(
    std::span<const trace::QueryReplyPair> pairs, std::uint32_t min_support,
    const DimensionFn& dimension_of) {
  assert(min_support >= 1);
  // (antecedent key, consequent) -> count.  A nested map keeps the memory
  // layout simple; windows are at most a few tens of thousands of pairs.
  std::map<std::pair<std::uint64_t, HostId>, std::uint32_t> counts;
  for (const trace::QueryReplyPair& pair : pairs) {
    const std::uint64_t key =
        antecedent_key(pair.source_host, dimension_of(pair.query));
    ++counts[{key, pair.replying_neighbor}];
  }

  DimensionedRuleSet ruleset;
  for (const auto& [key_pair, count] : counts) {
    if (count < min_support) continue;
    ruleset.rules_.find_or_insert(key_pair.first)
        .push_back(Consequent{key_pair.second, count});
    ++ruleset.rule_count_;
  }
  ruleset.rules_.for_each([](std::uint64_t, std::vector<Consequent>& consequents) {
    std::sort(consequents.begin(), consequents.end(),
              [](const Consequent& a, const Consequent& b) {
                if (a.support != b.support) return a.support > b.support;
                return a.neighbor < b.neighbor;
              });
  });
  return ruleset;
}

bool DimensionedRuleSet::covers(HostId source, std::uint32_t dimension) const {
  return rules_.find(antecedent_key(source, dimension)) != nullptr;
}

bool DimensionedRuleSet::matches(HostId source, std::uint32_t dimension,
                                 HostId consequent) const {
  const auto all = consequents(source, dimension);
  return std::any_of(all.begin(), all.end(), [consequent](const Consequent& c) {
    return c.neighbor == consequent;
  });
}

std::span<const Consequent> DimensionedRuleSet::consequents(
    HostId source, std::uint32_t dimension) const {
  const std::vector<Consequent>* found =
      rules_.find(antecedent_key(source, dimension));
  if (found == nullptr) return {};
  return *found;
}

std::vector<HostId> DimensionedRuleSet::top_k(HostId source,
                                              std::uint32_t dimension,
                                              std::size_t k) const {
  const auto all = consequents(source, dimension);
  std::vector<HostId> out;
  out.reserve(std::min(k, all.size()));
  for (std::size_t i = 0; i < all.size() && i < k; ++i) {
    out.push_back(all[i].neighbor);
  }
  return out;
}

BlockMeasures evaluate_dimensioned(const DimensionedRuleSet& rules,
                                   std::span<const trace::QueryReplyPair> block,
                                   const DimensionFn& dimension_of) {
  GuidStates states;
  return evaluate_block(
      states, block,
      [&](const trace::QueryReplyPair& pair, std::uint32_t) {
        return rules.covers(pair.source_host, dimension_of(pair.query));
      },
      [&](const trace::QueryReplyPair& pair, std::uint32_t) {
        return rules.matches(pair.source_host, dimension_of(pair.query),
                             pair.replying_neighbor);
      });
}

}  // namespace aar::core
