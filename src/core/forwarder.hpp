#pragma once
// Forwarding decision layer: turns a rule set into "which neighbors should
// this query go to" (paper Section III-B.1 last paragraph), including the
// flooding fallback of Section III-B: "if hits aren't found for a particular
// query when using this approach, the node can still revert to flooding".

#include <cstdint>
#include <span>
#include <vector>

#include "core/measures.hpp"
#include "core/ruleset.hpp"
#include "util/rng.hpp"

namespace aar::core {

enum class SelectionMode {
  kTopK,     ///< the k consequents with the highest support
  kRandomK,  ///< a random k-subset of the consequents (k-random-walk style)
};

struct ForwarderConfig {
  std::size_t k = 1;                          ///< fan-out when rules match
  SelectionMode mode = SelectionMode::kTopK;
};

struct ForwardDecision {
  std::vector<HostId> targets;  ///< neighbors to forward to (rule-driven)
  bool flood = false;           ///< no rule matched — revert to flooding

  [[nodiscard]] bool rule_routed() const noexcept { return !flood; }
};

/// Stateless decision function over a rule set.
class Forwarder {
 public:
  explicit Forwarder(ForwarderConfig config = {}) : config_(config) {}

  /// Decide for a query received from `source`.  When the rule set has no
  /// antecedent for `source`, the decision is to flood.  `extra_k` widens
  /// the fan-out beyond the configured k (retry-ladder degradation:
  /// rule-route, then widened top-k, then flood).
  [[nodiscard]] ForwardDecision decide(const RuleSet& rules, HostId source,
                                       util::Rng& rng,
                                       std::size_t extra_k = 0) const;

  /// decide() into a buffer the caller owns: append the targets to `out`
  /// and return how many were appended (0 = flood).  Draws from `rng`
  /// exactly as decide() does.
  std::size_t choose(const RuleSet& rules, HostId source, util::Rng& rng,
                     std::vector<HostId>& out, std::size_t extra_k = 0) const;

  [[nodiscard]] const ForwarderConfig& config() const noexcept { return config_; }

 private:
  ForwarderConfig config_;
};

/// Forwarding-aware variant of core::evaluate (ablation A1): a covered query
/// is successful only when the replying neighbor is among the (at most k)
/// neighbors the forwarder would actually have sent it to — i.e. ρ under a
/// concrete fan-out, not under the whole rule set.
[[nodiscard]] BlockMeasures evaluate_forwarding(
    const RuleSet& rules, std::span<const QueryReplyPair> block,
    const Forwarder& forwarder, util::Rng& rng);

}  // namespace aar::core
