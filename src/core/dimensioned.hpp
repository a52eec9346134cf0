#pragma once
// Query-dimension rule sets — the Section VI extension "adding dimensions
// such as the query strings during rule generation".
//
// A plain rule {host} -> {neighbor} collapses all of a host's queries into
// one antecedent; when the host's community has several interests served
// through different neighbors, the rule set can only back the most frequent
// one.  Dimensioned rules key on (host, dimension(query)) instead — the
// dimension function maps the query content to a coarse topic (here: the
// interest category) — so each interest gets its own consequent list.  The
// A3 bench measures the α/ρ gain over plain host rules.

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/measures.hpp"
#include "core/ruleset.hpp"
#include "trace/record.hpp"
#include "util/flat_map.hpp"

namespace aar::core {

/// Maps query content to a coarse dimension (topic / cluster id).
using DimensionFn = std::function<std::uint32_t(trace::QueryKey)>;

/// The dimension function matching trace::TraceGenerator's query encoding
/// (category * 1000 + rank).
[[nodiscard]] inline DimensionFn category_dimension() {
  return [](trace::QueryKey key) { return key / 1000u; };
}

/// Rule set over (source host, query dimension) antecedents.
class DimensionedRuleSet {
 public:
  DimensionedRuleSet() = default;

  /// Mine with support pruning, as RuleSet::build, but per (host, dimension).
  [[nodiscard]] static DimensionedRuleSet build(
      std::span<const trace::QueryReplyPair> pairs, std::uint32_t min_support,
      const DimensionFn& dimension_of);

  [[nodiscard]] bool covers(HostId source, std::uint32_t dimension) const;
  [[nodiscard]] bool matches(HostId source, std::uint32_t dimension,
                             HostId consequent) const;
  [[nodiscard]] std::span<const Consequent> consequents(
      HostId source, std::uint32_t dimension) const;
  [[nodiscard]] std::vector<HostId> top_k(HostId source,
                                          std::uint32_t dimension,
                                          std::size_t k) const;

  [[nodiscard]] std::size_t num_antecedents() const noexcept {
    return rules_.size();
  }
  [[nodiscard]] std::size_t num_rules() const noexcept { return rule_count_; }
  [[nodiscard]] bool empty() const noexcept { return rules_.empty(); }

 private:
  static std::uint64_t antecedent_key(HostId source,
                                      std::uint32_t dimension) noexcept {
    return (static_cast<std::uint64_t>(source) << 32) | dimension;
  }

  util::FlatCountMap<std::uint64_t, std::vector<Consequent>> rules_;
  std::size_t rule_count_ = 0;
};

/// Eq. 1/2 evaluation against dimensioned rules: a query is covered when its
/// (source, dimension) antecedent exists, successful when its replying
/// neighbor is one of that antecedent's consequents.
[[nodiscard]] BlockMeasures evaluate_dimensioned(
    const DimensionedRuleSet& rules,
    std::span<const trace::QueryReplyPair> block,
    const DimensionFn& dimension_of);

}  // namespace aar::core
