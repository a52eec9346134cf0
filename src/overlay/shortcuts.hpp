#pragma once
// Interest-based shortcuts baseline (Sripanidkulchai, Maggs & Zhang,
// reference [7] of the paper): each peer keeps a small ranked list of peers
// that answered its past queries and asks them directly before resorting to
// flooding.  Shortcuts exploit the same interest locality the association
// rules do, but only help the *origin* of a query — intermediate nodes still
// flood — which is exactly the contrast the paper draws.

#include <cstdint>
#include <vector>

#include "overlay/policy.hpp"

namespace aar::overlay {

struct ShortcutsConfig {
  std::size_t list_size = 10;   ///< shortcuts kept (paper [7] uses 10)
  std::size_t probes = 10;      ///< shortcuts asked per query (<= list_size)
};

class InterestShortcutsPolicy final : public RoutingPolicy {
 public:
  explicit InterestShortcutsPolicy(ShortcutsConfig config = {})
      : config_(config) {}

  [[nodiscard]] std::string name() const override { return "shortcuts"; }

  /// Underlying propagation is plain flooding.
  bool route(const Query& query, NodeId self, NodeId from,
             std::span<const NodeId> neighbors, util::Rng& rng,
             std::vector<NodeId>& out) override {
    (void)query, (void)self, (void)rng;
    for (NodeId neighbor : neighbors) {
      if (neighbor != from) out.push_back(neighbor);
    }
    return false;
  }

  void probe_candidates(const Query& query, NodeId self,
                        std::vector<NodeId>& out) override;

  void on_search_result(const Query& query, NodeId self, bool hit,
                        NodeId server) override;

  /// Churn: a departed peer's shortcut entry now points at a stranger.
  /// Servers are learned from anywhere in the overlay, so this policy keeps
  /// learns_only_neighbors() false.
  void on_peer_departed(NodeId node) override { std::erase(shortcuts_, node); }

  [[nodiscard]] const std::vector<NodeId>& shortcuts() const noexcept {
    return shortcuts_;
  }

 private:
  ShortcutsConfig config_;
  std::vector<NodeId> shortcuts_;  ///< most-recently-successful first
};

}  // namespace aar::overlay
