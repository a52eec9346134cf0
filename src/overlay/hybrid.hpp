#pragma once
// Hybrid shortcuts + association routing — the Section VI combination:
//
//   "For interest-based shortcuts, association rules could be used to route
//    queries that have not been successfully replied to when using the
//    shortcuts.  This would serve as one last chance to avoid flooding."
//
// Search order at the origin: (1) probe the shortcut list directly; (2) on
// miss, propagate — and here the node's mined rules narrow the forwarding
// instead of flooding; (3) only if the rules also miss does the query flood
// (the fallback both component techniques share).  As an intermediate relay
// the policy behaves exactly like AssociationRoutingPolicy.

#include "overlay/assoc_policy.hpp"
#include "overlay/shortcuts.hpp"

namespace aar::overlay {

struct HybridConfig {
  AssociationPolicyConfig association{};
  ShortcutsConfig shortcuts{};
};

class HybridShortcutsAssociationPolicy final : public RoutingPolicy {
 public:
  explicit HybridShortcutsAssociationPolicy(HybridConfig config = {})
      : association_(config.association), shortcuts_(config.shortcuts) {}

  [[nodiscard]] std::string name() const override {
    return "shortcuts+association";
  }
  [[nodiscard]] bool wants_flood_fallback() const override { return true; }

  bool route(const Query& query, NodeId self, NodeId from,
             std::span<const NodeId> neighbors, util::Rng& rng,
             std::vector<NodeId>& out) override {
    return association_.route(query, self, from, neighbors, rng, out);
  }

  void on_reply_path(const Query& query, NodeId self, NodeId upstream,
                     NodeId downstream) override {
    association_.on_reply_path(query, self, upstream, downstream);
  }

  void probe_candidates(const Query& query, NodeId self,
                        std::vector<NodeId>& out) override {
    shortcuts_.probe_candidates(query, self, out);
  }

  void on_search_result(const Query& query, NodeId self, bool hit,
                        NodeId server) override {
    shortcuts_.on_search_result(query, self, hit, server);
  }

  /// Churn: both halves purge; the shortcut half learns servers anywhere,
  /// so learns_only_neighbors() stays false.
  void on_peer_departed(NodeId node) override {
    association_.on_peer_departed(node);
    shortcuts_.on_peer_departed(node);
  }

  [[nodiscard]] const AssociationRoutingPolicy& association() const noexcept {
    return association_;
  }
  [[nodiscard]] const InterestShortcutsPolicy& shortcuts() const noexcept {
    return shortcuts_;
  }

 private:
  AssociationRoutingPolicy association_;
  InterestShortcutsPolicy shortcuts_;
};

}  // namespace aar::overlay
