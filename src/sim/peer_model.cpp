#include "sim/peer_model.hpp"

#include <algorithm>
#include <iterator>

namespace aar::sim {

PolicyPeerModel::PolicyPeerModel(std::size_t peers,
                                 const overlay::PolicyFactory& factory)
    : factory_(factory) {
  policies_.resize(peers);
  for (std::size_t node = 0; node < peers; ++node) {
    set_policy(static_cast<NodeId>(node), factory_(static_cast<NodeId>(node)));
  }
}

std::string PolicyPeerModel::name() const {
  return policies_.empty() ? std::string{"empty"} : policies_.front()->name();
}

void PolicyPeerModel::set_policy(NodeId node,
                                 std::unique_ptr<overlay::RoutingPolicy> policy) {
  if (policy == nullptr) {
    throw std::invalid_argument("PolicyPeerModel: null policy");
  }
  if (policies_[node] != nullptr && policies_[node]->allows_revisit()) {
    --revisiting_;
  }
  if (policy->allows_revisit()) ++revisiting_;
  const auto at =
      std::lower_bound(learns_any_.begin(), learns_any_.end(), node);
  const bool listed = at != learns_any_.end() && *at == node;
  if (policy->learns_only_neighbors()) {
    if (listed) learns_any_.erase(at);
  } else if (!listed) {
    learns_any_.insert(at, node);
  }
  policies_[node] = std::move(policy);
}

bool PolicyPeerModel::route(const overlay::Query& query, NodeId self,
                            NodeId from, std::span<const NodeId> neighbors,
                            util::Rng& rng, std::vector<NodeId>& out) {
  return policies_[self]->route(query, self, from, neighbors, rng, out);
}

void PolicyPeerModel::on_reply_path(const overlay::Query& query, NodeId self,
                                    NodeId upstream, NodeId downstream) {
  policies_[self]->on_reply_path(query, self, upstream, downstream);
}

void PolicyPeerModel::probe_candidates(const overlay::Query& query, NodeId self,
                                       std::vector<NodeId>& out) {
  policies_[self]->probe_candidates(query, self, out);
}

void PolicyPeerModel::on_search_result(const overlay::Query& query, NodeId self,
                                       bool hit, NodeId server) {
  policies_[self]->on_search_result(query, self, hit, server);
}

bool PolicyPeerModel::wants_flood_fallback(NodeId origin) const {
  return policies_[origin]->wants_flood_fallback();
}

void PolicyPeerModel::reset_peer(NodeId node) { set_policy(node, factory_(node)); }

void PolicyPeerModel::on_peer_departed(
    NodeId departed, std::span<const NodeId> former_neighbors) {
  // Ascending order, as a sweep of every peer would go: the last rule
  // snapshot a purge takes sets the mining.antecedents gauge.
  neighbor_scratch_.assign(former_neighbors.begin(), former_neighbors.end());
  std::sort(neighbor_scratch_.begin(), neighbor_scratch_.end());
  purge_scratch_.clear();
  std::set_union(neighbor_scratch_.begin(), neighbor_scratch_.end(),
                 learns_any_.begin(), learns_any_.end(),
                 std::back_inserter(purge_scratch_));
  for (const NodeId peer : purge_scratch_) {
    if (peer != departed) policies_[peer]->on_peer_departed(departed);
  }
}

}  // namespace aar::sim
