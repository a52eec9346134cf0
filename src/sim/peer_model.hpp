#pragma once
// The narrow interface between the discrete-event engine and peer behaviour.
//
// aar::sim::Engine knows nothing about rule mining or shortcut lists: every
// behavioural decision goes through a PeerModel.  The contract splits along
// the engine's two phases:
//
//   * route() runs in the PARALLEL phase of a duplicate-suppressed pass — it
//     may be called concurrently for distinct peers, must be deterministic,
//     and must touch only state owned by `self` (its rng is a per-call
//     stream).  While any peer revisits (any_revisits()), passes route in
//     the serial apply phase instead, drawing from the engine's shared rng.
//   * every other hook runs in the SERIAL apply phase, in the canonical
//     event order, and may mutate cross-peer state freely.
//
// PolicyPeerModel adapts the overlay::RoutingPolicy zoo (flooding, k-random
// walks, interest shortcuts, routing indices, association routing) unchanged.

#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "overlay/graph.hpp"
#include "overlay/policy.hpp"
#include "util/rng.hpp"

namespace aar::sim {

using overlay::NodeId;

class PeerModel {
 public:
  virtual ~PeerModel() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Choose forwarding targets for `query` arriving at `self` from `from`.
  /// Returns true when the selection was policy-directed.  Called
  /// concurrently for distinct peers in duplicate-suppressed passes; must be
  /// deterministic and touch only per-`self` state and `rng`.
  virtual bool route(const overlay::Query& query, NodeId self, NodeId from,
                     std::span<const NodeId> neighbors, util::Rng& rng,
                     std::vector<NodeId>& out) = 0;

  /// Does `node` forward duplicates of a query it has already seen?
  [[nodiscard]] virtual bool revisits(NodeId node) const {
    (void)node;
    return false;
  }
  /// Does any peer revisit?  Decides, once per pass, whether the pass
  /// routes in the serial apply phase.
  [[nodiscard]] virtual bool any_revisits() const { return false; }

  // --- serial-phase hooks (never called concurrently) ---------------------

  /// A reply passed back through `self` (the paper's mined observation).
  virtual void on_reply_path(const overlay::Query& query, NodeId self,
                             NodeId upstream, NodeId downstream) {
    (void)query, (void)self, (void)upstream, (void)downstream;
  }

  /// Direct probe candidates for the origin before any propagation.
  virtual void probe_candidates(const overlay::Query& query, NodeId self,
                                std::vector<NodeId>& out) {
    (void)query, (void)self, (void)out;
  }

  /// Origin-side notification of the final outcome.
  virtual void on_search_result(const overlay::Query& query, NodeId self,
                                bool hit, NodeId server) {
    (void)query, (void)self, (void)hit, (void)server;
  }

  /// Should a miss at `origin` be retried by flooding?
  [[nodiscard]] virtual bool wants_flood_fallback(NodeId origin) const {
    (void)origin;
    return false;
  }

  /// Churn: the peer at `node` was replaced — discard its learned state.
  virtual void reset_peer(NodeId node) = 0;

  /// Churn: the old occupant of `departed` is gone, so learned state naming
  /// it gets purged at every peer except `departed` that may hold some.
  /// `former_neighbors` are its links from before the departure.
  virtual void on_peer_departed(NodeId departed,
                                std::span<const NodeId> former_neighbors) = 0;
};

/// Adapter running one overlay::RoutingPolicy per peer, created by a
/// PolicyFactory.  Throws std::invalid_argument if the factory produces a
/// null policy.
class PolicyPeerModel final : public PeerModel {
 public:
  PolicyPeerModel(std::size_t peers, const overlay::PolicyFactory& factory);

  [[nodiscard]] std::string name() const override;

  bool route(const overlay::Query& query, NodeId self, NodeId from,
             std::span<const NodeId> neighbors, util::Rng& rng,
             std::vector<NodeId>& out) override;
  [[nodiscard]] bool revisits(NodeId node) const override {
    return policies_[node]->allows_revisit();
  }
  [[nodiscard]] bool any_revisits() const override { return revisiting_ > 0; }

  void on_reply_path(const overlay::Query& query, NodeId self, NodeId upstream,
                     NodeId downstream) override;
  void probe_candidates(const overlay::Query& query, NodeId self,
                        std::vector<NodeId>& out) override;
  void on_search_result(const overlay::Query& query, NodeId self, bool hit,
                        NodeId server) override;
  [[nodiscard]] bool wants_flood_fallback(NodeId origin) const override;
  void reset_peer(NodeId node) override;
  /// Purges the former neighbours and every peer whose policy can learn any
  /// id (docs/SIMULATION.md, "Churn in place"), once each, in ascending id
  /// order as a sweep of every peer would.
  void on_peer_departed(NodeId departed,
                        std::span<const NodeId> former_neighbors) override;

  /// The per-peer policy.
  [[nodiscard]] overlay::RoutingPolicy& policy(NodeId node) {
    return *policies_[node];
  }
  /// Replace a peer's policy (adoption sweeps, A/B tests).  Throws
  /// std::invalid_argument on null.
  void set_policy(NodeId node, std::unique_ptr<overlay::RoutingPolicy> policy);

 private:
  overlay::PolicyFactory factory_;
  std::vector<std::unique_ptr<overlay::RoutingPolicy>> policies_;
  std::size_t revisiting_ = 0;  ///< peers whose policy allows_revisit()
  /// Peers whose policy can learn any id (!learns_only_neighbors()), sorted.
  std::vector<NodeId> learns_any_;
  std::vector<NodeId> neighbor_scratch_;
  std::vector<NodeId> purge_scratch_;
};

}  // namespace aar::sim
