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

/// What decide() returns: the chosen targets in a vector of their own.
struct ForwardDecision {
  std::vector<HostId> targets;  ///< neighbors to forward to (rule-driven)
  bool flood = false;           ///< no rule matched — revert to flooding

  [[nodiscard]] bool rule_routed() const noexcept { return !flood; }
};

/// Stateless decision function over a rule set.
class Forwarder {
 public:
  explicit Forwarder(ForwarderConfig config = {}) : config_(config) {}

  /// The forwarding decision for a query received from `source`: append
  /// its targets to `out`, a buffer the caller owns, and return how many
  /// were appended.  0 means the rule set has no antecedent for `source`
  /// and the query floods.  `extra_k` widens the fan-out beyond the
  /// configured k (retry-ladder degradation: rule-route, then widened
  /// top-k, then flood).
  std::size_t choose(const RuleSet& rules, HostId source, util::Rng& rng,
                     std::vector<HostId>& out, std::size_t extra_k = 0) const;

  /// choose() into a fresh vector.  No library code, tool or example calls
  /// it: it stays only because perfbench/src/relay.cpp does, and goes at
  /// the next change to the benchmark (as gnutella/capture.hpp does).
  [[nodiscard]] ForwardDecision decide(const RuleSet& rules, HostId source,
                                       util::Rng& rng,
                                       std::size_t extra_k = 0) const {
    ForwardDecision decision;
    decision.flood =
        choose(rules, source, rng, decision.targets, extra_k) == 0;
    return decision;
  }

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
