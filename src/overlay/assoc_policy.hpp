#pragma once
// Association-rule routing policy — the paper's contribution deployed inside
// the overlay simulator.
//
// Each adopting node observes the (antecedent, consequent) pairs that reply
// paths reveal (on_reply_path), counts them in a per-node incremental miner
// whose ring-buffer window is the node's sliding "block", and refreshes its
// core::RuleSet snapshot every `rebuild_every` observations.  Incoming
// queries from a neighbor with a matching antecedent are forwarded only to
// the top-k consequents; everything else is flooded.  A query the origin
// rule-routes that finds nothing is retried by flooding
// (wants_flood_fallback), so result quality does not collapse — the paper's
// Section III-B deployment story.

#include <cstdint>

#include "core/forwarder.hpp"
#include "core/ruleset.hpp"
#include "mining/incremental_miner.hpp"
#include "overlay/policy.hpp"

namespace aar::overlay {

struct AssociationPolicyConfig {
  /// Pairs kept in the sliding observation log (the node's "block").
  std::size_t window = 384;
  /// Rebuild the rule set after this many new observations.
  std::size_t rebuild_every = 32;
  /// Support-pruning threshold for mined rules (overlay windows are far
  /// smaller than the trace's 10k blocks, so the threshold scales down too).
  std::uint32_t min_support = 2;
  /// Fan-out and selection for rule-directed forwarding.
  core::ForwarderConfig forwarder{};
};

class AssociationRoutingPolicy final : public RoutingPolicy {
 public:
  explicit AssociationRoutingPolicy(AssociationPolicyConfig config = {})
      : config_(config),
        forwarder_(config.forwarder),
        miner_(mining::MinerConfig{.window = config.window,
                                   .min_support = config.min_support}) {}

  [[nodiscard]] std::string name() const override { return "association"; }
  [[nodiscard]] bool wants_flood_fallback() const override { return true; }

  bool route(const Query& query, NodeId self, NodeId from,
             std::span<const NodeId> neighbors, util::Rng& rng,
             std::vector<NodeId>& out) override;

  void on_reply_path(const Query& query, NodeId self, NodeId upstream,
                     NodeId downstream) override;

  /// Churn: purge every observation naming the departed peer so stale rules
  /// stop routing to a NodeId now occupied by a different peer.
  void on_peer_departed(NodeId node) override;
  /// A reply path's (upstream, downstream) pair names the peer itself or
  /// two of its neighbours.
  [[nodiscard]] bool learns_only_neighbors() const override { return true; }
  /// No rule yet: every query floods.
  [[nodiscard]] bool floods_all() const override {
    return miner_.ruleset().empty();
  }

  /// The rule set of the most recent snapshot (refreshed every
  /// `rebuild_every` observations) — what route() forwards against.
  [[nodiscard]] const core::RuleSet& rules() const noexcept {
    return miner_.ruleset();
  }
  /// The node's miner (window/eviction/snapshot stats; tests).
  [[nodiscard]] const mining::IncrementalRuleMiner& miner() const noexcept {
    return miner_;
  }
  [[nodiscard]] std::uint64_t rule_hits() const noexcept { return rule_hits_; }

 private:
  AssociationPolicyConfig config_;
  core::Forwarder forwarder_;
  mining::IncrementalRuleMiner miner_;
  std::size_t observations_since_rebuild_ = 0;
  std::uint64_t rule_hits_ = 0;
};

}  // namespace aar::overlay
