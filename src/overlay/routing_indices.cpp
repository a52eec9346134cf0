#include "overlay/routing_indices.hpp"

#include <algorithm>
#include <cassert>

namespace aar::overlay {

RoutingIndexTable::RoutingIndexTable(
    const Graph& graph, const std::vector<std::vector<double>>& docs,
    std::size_t horizon, double decay) {
  assert(docs.size() == graph.num_nodes());
  categories_ = docs.empty() ? 0 : docs.front().size();
  const std::size_t n = graph.num_nodes();

  // reach[node][category]: discounted documents reachable from `node`
  // including its own.  Fixed point of
  //   reach = local + decay * sum over neighbors of their reach,
  // iterated `horizon` times from reach = local, which equals summing over
  // walks of length <= horizon — the hop-count compound RI (over-counting on
  // cycles, as the distributed protocol does).
  std::vector<std::vector<double>> reach = docs;
  std::vector<std::vector<double>> next(n, std::vector<double>(categories_));
  for (std::size_t round = 0; round < horizon; ++round) {
    for (NodeId node = 0; node < n; ++node) {
      next[node] = docs[node];
      for (NodeId neighbor : graph.neighbors(node)) {
        for (std::size_t cat = 0; cat < categories_; ++cat) {
          next[node][cat] += decay * reach[neighbor][cat];
        }
      }
    }
    std::swap(reach, next);
  }

  // Per-neighbor goodness: what that neighbor's subtree-ish reach offers.
  index_.resize(n);
  for (NodeId node = 0; node < n; ++node) {
    const auto neighbors = graph.neighbors(node);
    index_[node].resize(neighbors.size() * categories_);
    for (std::size_t slot = 0; slot < neighbors.size(); ++slot) {
      const NodeId neighbor = neighbors[slot];
      for (std::size_t cat = 0; cat < categories_; ++cat) {
        index_[node][slot * categories_ + cat] = reach[neighbor][cat];
      }
    }
  }
}

bool RoutingIndicesPolicy::route(const Query& query, NodeId self, NodeId from,
                                 std::span<const NodeId> neighbors,
                                 util::Rng& rng, std::vector<NodeId>& out) {
  (void)rng;
  // Rank neighbors by goodness for the query's category, excluding `from`.
  std::vector<std::pair<double, NodeId>> ranked;
  ranked.reserve(neighbors.size());
  for (std::size_t slot = 0; slot < neighbors.size(); ++slot) {
    if (neighbors[slot] == from) continue;
    ranked.emplace_back(table_->goodness(self, slot, query.category),
                        neighbors[slot]);
  }
  if (ranked.empty()) return false;
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  const std::size_t take = std::min(config_.fan_out, ranked.size());
  for (std::size_t i = 0; i < take; ++i) out.push_back(ranked[i].second);
  return true;
}

}  // namespace aar::overlay
