#pragma once
// Per-node routing policies for the overlay simulator.
//
// A policy decides, for each query arriving at a node, which neighbors it is
// forwarded to, and optionally learns from the replies that pass back
// through the node.  One policy instance exists per node (policies carry
// per-node state: rule sets, shortcut lists, routing indices), created by a
// PolicyFactory so deployments can be mixed (bench N2's partial-adoption
// sweep).

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "overlay/graph.hpp"
#include "trace/record.hpp"
#include "util/rng.hpp"
#include "workload/content.hpp"

namespace aar::overlay {

/// A query in flight.  `category` is derived from the target file and stands
/// in for keyword matching.
struct Query {
  trace::Guid guid = 0;
  workload::FileId target = workload::kNoFile;
  workload::Category category = 0;
  NodeId origin = kNoNode;
  /// Degradation hint for retried queries: policies that narrow propagation
  /// (rule-directed top-k) should widen their fan-out by this much.  0 on
  /// the primary pass; set by the simulator's retry ladder.
  std::uint32_t widen = 0;
};

class RoutingPolicy {
 public:
  virtual ~RoutingPolicy() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Append to `out` the neighbors `self` forwards `query` to, leaving what
  /// `out` already holds alone (the simulator passes one buffer for every
  /// event of a shard).  `from` is the neighbor the query arrived from, or
  /// == self when self originated it.  `neighbors` are self's overlay
  /// links.  Returns true when the selection was policy-*directed* (rules,
  /// indices, ...) rather than a default flood/walk — the simulator reports
  /// this for the origin's decision.
  virtual bool route(const Query& query, NodeId self, NodeId from,
                     std::span<const NodeId> neighbors, util::Rng& rng,
                     std::vector<NodeId>& out) = 0;

  /// A reply for `query` passed back through `self`: the query had arrived
  /// from `upstream` (== self for the origin) and the reply returned through
  /// `downstream`.  This is exactly the (antecedent, consequent) observation
  /// the paper mines.
  virtual void on_reply_path(const Query& query, NodeId self, NodeId upstream,
                             NodeId downstream) {
    (void)query, (void)self, (void)upstream, (void)downstream;
  }

  /// Nodes to contact directly before any overlay propagation (interest-based
  /// shortcuts).  Default: none.
  virtual void probe_candidates(const Query& query, NodeId self,
                                std::vector<NodeId>& out) {
    (void)query, (void)self, (void)out;
  }

  /// Origin-side notification of the final outcome (`server` == kNoNode on
  /// a miss) — lets shortcut lists update.
  virtual void on_search_result(const Query& query, NodeId self, bool hit,
                                NodeId server) {
    (void)query, (void)self, (void)hit, (void)server;
  }

  /// The peer at `node` departed (churn): any learned state naming it —
  /// mined rule consequents, shortcut lists — is now stale and should be
  /// purged.  Default: no learned state, nothing to do.
  virtual void on_peer_departed(NodeId node) { (void)node; }

  /// True when every id the policy's learned state can name was its peer's
  /// neighbour (or the peer itself) when learned.  A departure then needs
  /// the purge only at the departed peer's former neighbours.  Default
  /// false, the safe answer: the policy may learn any id.
  [[nodiscard]] virtual bool learns_only_neighbors() const { return false; }

  /// True when a miss under this policy should be retried by flooding
  /// (the paper's "revert to flooding" escape hatch).
  [[nodiscard]] virtual bool wants_flood_fallback() const { return false; }

  /// True when the policy forwards through already-visited nodes (random
  /// walks walk; flooding-style policies are duplicate-suppressed).
  [[nodiscard]] virtual bool allows_revisit() const { return false; }

  /// True while route() would forward any query to every neighbour except
  /// `from`, undirected, without drawing from its rng or changing any
  /// state.  The simulator then floods for the policy without calling
  /// route(), and asks again after every other hook.  Default false, the
  /// safe answer.
  [[nodiscard]] virtual bool floods_all() const { return false; }
};

using PolicyFactory =
    std::function<std::unique_ptr<RoutingPolicy>(NodeId node)>;

/// Gnutella flooding: forward to every neighbor except the one it came from.
class FloodingPolicy final : public RoutingPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "flooding"; }
  [[nodiscard]] bool learns_only_neighbors() const override { return true; }
  [[nodiscard]] bool floods_all() const override { return true; }
  bool route(const Query& query, NodeId self, NodeId from,
             std::span<const NodeId> neighbors, util::Rng& rng,
             std::vector<NodeId>& out) override {
    (void)query, (void)self, (void)rng;
    for (NodeId neighbor : neighbors) {
      if (neighbor != from) out.push_back(neighbor);
    }
    return false;
  }
};

/// k-random-walks (Gkantsidis et al., reference [6]): the origin launches
/// `walkers` walkers; every other node forwards an incoming walker to one
/// random neighbor (avoiding the sender when possible).
class KRandomWalkPolicy final : public RoutingPolicy {
 public:
  explicit KRandomWalkPolicy(std::size_t walkers) : walkers_(walkers) {}

  [[nodiscard]] std::string name() const override {
    return "k-random-walk(" + std::to_string(walkers_) + ")";
  }
  [[nodiscard]] bool allows_revisit() const override { return true; }
  [[nodiscard]] bool learns_only_neighbors() const override { return true; }

  bool route(const Query& query, NodeId self, NodeId from,
             std::span<const NodeId> neighbors, util::Rng& rng,
             std::vector<NodeId>& out) override {
    (void)query;
    if (neighbors.empty()) return false;
    const std::size_t fan_out = from == self ? walkers_ : 1;
    for (std::size_t walker = 0; walker < fan_out; ++walker) {
      NodeId pick = neighbors[rng.index(neighbors.size())];
      if (pick == from && neighbors.size() > 1) {
        // One retry keeps walkers from trivially bouncing back.
        pick = neighbors[rng.index(neighbors.size())];
      }
      out.push_back(pick);
    }
    return false;
  }

 private:
  std::size_t walkers_;
};

}  // namespace aar::overlay
