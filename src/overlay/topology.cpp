#include "overlay/topology.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace aar::overlay {

std::size_t connect_components(Graph& graph, util::Rng& rng) {
  const std::size_t n = graph.num_nodes();
  if (n == 0) return 0;
  std::size_t added = 0;
  for (;;) {
    const auto distances = graph.bfs_distances(0);
    std::vector<NodeId> reachable;
    NodeId stranded = kNoNode;
    for (NodeId node = 0; node < n; ++node) {
      if (distances[node] == Graph::kUnreachable) {
        if (stranded == kNoNode) stranded = node;
      } else {
        reachable.push_back(node);
      }
    }
    if (stranded == kNoNode) return added;
    const NodeId anchor = reachable[rng.index(reachable.size())];
    if (graph.add_edge(stranded, anchor)) ++added;
  }
}

Graph make_erdos_renyi(std::size_t nodes, std::size_t edges, util::Rng& rng) {
  if (nodes < 2) {
    throw std::invalid_argument("make_erdos_renyi: nodes must be >= 2, got " +
                                std::to_string(nodes));
  }
  Graph graph(nodes);
  const std::size_t max_edges = nodes * (nodes - 1) / 2;
  edges = std::min(edges, max_edges);
  std::size_t placed = 0;
  while (placed < edges) {
    const auto a = static_cast<NodeId>(rng.below(nodes));
    const auto b = static_cast<NodeId>(rng.below(nodes));
    if (graph.add_edge(a, b)) ++placed;
  }
  connect_components(graph, rng);
  return graph;
}

Graph make_barabasi_albert(std::size_t nodes, std::size_t attach,
                           util::Rng& rng) {
  if (attach < 1 || nodes <= attach) {
    throw std::invalid_argument(
        "make_barabasi_albert: need 1 <= attach < nodes, got attach " +
        std::to_string(attach) + " with " + std::to_string(nodes) + " nodes");
  }
  Graph graph(nodes);
  // Clique seed of attach+1 nodes.
  const std::size_t seed = attach + 1;
  for (NodeId a = 0; a < seed; ++a) {
    for (NodeId b = a + 1; b < seed; ++b) graph.add_edge(a, b);
  }
  // Degree-proportional sampling via the repeated-endpoints trick: every
  // edge contributes both endpoints to the pool.
  std::vector<NodeId> endpoint_pool;
  endpoint_pool.reserve(2 * nodes * attach);
  for (NodeId a = 0; a < seed; ++a) {
    for (NodeId b : graph.neighbors(a)) {
      if (b > a) {
        endpoint_pool.push_back(a);
        endpoint_pool.push_back(b);
      }
    }
  }
  for (NodeId node = static_cast<NodeId>(seed); node < nodes; ++node) {
    std::size_t linked = 0;
    std::size_t attempts = 0;
    while (linked < attach && attempts++ < 64 * attach) {
      const NodeId target = endpoint_pool[rng.index(endpoint_pool.size())];
      if (graph.add_edge(node, target)) {
        endpoint_pool.push_back(node);
        endpoint_pool.push_back(target);
        ++linked;
      }
    }
  }
  connect_components(graph, rng);
  return graph;
}

}  // namespace aar::overlay
