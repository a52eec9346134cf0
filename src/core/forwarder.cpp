#include "core/forwarder.hpp"

#include <algorithm>
#include <utility>

namespace aar::core {

ForwardDecision Forwarder::decide(const RuleSet& rules, HostId source,
                                  util::Rng& rng, std::size_t extra_k) const {
  ForwardDecision decision;
  if (!rules.covers(source)) {
    decision.flood = true;
    return decision;
  }
  const std::size_t k = config_.k + extra_k;
  decision.targets = config_.mode == SelectionMode::kTopK
                         ? rules.top_k(source, k)
                         : rules.random_k(source, k, rng);
  decision.flood = decision.targets.empty();
  return decision;
}

BlockMeasures evaluate_forwarding(const RuleSet& rules,
                                  std::span<const QueryReplyPair> block,
                                  const Forwarder& forwarder, util::Rng& rng) {
  // Cache the forwarding decision per query (by first-sight index), so one
  // choice is made per query, not per reply.
  GuidStates states;
  std::vector<std::vector<HostId>> targets;
  return evaluate_block(
      states, block,
      [&](const QueryReplyPair& pair, std::uint32_t query) {
        ForwardDecision decision = forwarder.decide(rules, pair.source_host, rng);
        if (!decision.rule_routed()) return false;
        targets.resize(query + 1);
        targets[query] = std::move(decision.targets);
        return true;
      },
      [&](const QueryReplyPair& pair, std::uint32_t query) {
        const std::vector<HostId>& sent = targets[query];
        return std::find(sent.begin(), sent.end(), pair.replying_neighbor) !=
               sent.end();
      },
      [](const QueryReplyPair&) {});
}

}  // namespace aar::core
