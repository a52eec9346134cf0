#pragma once
// Routing Indices baseline (Crespo & Garcia-Molina, reference [10] of the
// paper): each node keeps, per neighbor and per interest category, an
// estimate of how many documents of that category are reachable through the
// neighbor, and forwards a query to the neighbor(s) with the best estimate.
//
// We build the hop-count-discounted compound index centrally with the same
// fixed-point iteration the distributed exchange protocol converges to; on
// cyclic topologies the estimates over-count — a known property of RIs that
// the original paper accepts.

#include <cstdint>
#include <memory>
#include <vector>

#include "overlay/graph.hpp"
#include "overlay/policy.hpp"
#include "workload/content.hpp"

namespace aar::overlay {

/// The shared table: index[node][neighbor_slot][category] = discounted
/// document-count estimate through that neighbor.
class RoutingIndexTable {
 public:
  /// `docs[node][category]`: local document counts (built from an engine's
  /// stores by sim::local_document_counts).  `horizon` exchange rounds with
  /// per-hop `decay` (< 1).
  RoutingIndexTable(const Graph& graph,
                    const std::vector<std::vector<double>>& docs,
                    std::size_t horizon, double decay);

  /// Goodness of forwarding a `category` query from `node` via the neighbor
  /// at `slot` in the node's adjacency list.
  [[nodiscard]] double goodness(NodeId node, std::size_t slot,
                                workload::Category category) const {
    return index_[node][slot * categories_ + category];
  }
  [[nodiscard]] std::size_t categories() const noexcept { return categories_; }

 private:
  std::size_t categories_;
  // index_[node] is a flat (neighbor_slot x category) matrix.
  std::vector<std::vector<double>> index_;
};

struct RoutingIndicesConfig {
  std::size_t fan_out = 2;   ///< neighbors with the best goodness to use
  std::size_t horizon = 4;   ///< exchange rounds when building the table
  double decay = 0.5;        ///< per-hop discount
};

class RoutingIndicesPolicy final : public RoutingPolicy {
 public:
  RoutingIndicesPolicy(std::shared_ptr<const RoutingIndexTable> table,
                       RoutingIndicesConfig config)
      : table_(std::move(table)), config_(config) {}

  [[nodiscard]] std::string name() const override { return "routing-indices"; }
  [[nodiscard]] bool wants_flood_fallback() const override { return true; }
  [[nodiscard]] bool learns_only_neighbors() const override { return true; }

  bool route(const Query& query, NodeId self, NodeId from,
             std::span<const NodeId> neighbors, util::Rng& rng,
             std::vector<NodeId>& out) override;

 private:
  std::shared_ptr<const RoutingIndexTable> table_;
  RoutingIndicesConfig config_;
};

}  // namespace aar::overlay
