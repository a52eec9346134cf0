#include "overlay/superpeer.hpp"

#include <cassert>
#include <deque>

#include "overlay/topology.hpp"

namespace aar::overlay {

SuperPeerNetwork::SuperPeerNetwork(const SuperPeerConfig& config)
    : rng_(config.seed),
      catalogue_(config.content, rng_),
      super_graph_(make_erdos_renyi(
          config.super_peers,
          config.super_peers * config.super_peer_degree / 2, rng_)),
      flood_ttl_(config.flood_ttl) {
  assert(config.leaves > 0 && config.super_peers > 0);
  leaf_profiles_.reserve(config.leaves);
  leaf_stores_.resize(config.leaves);
  leaf_super_.resize(config.leaves);
  index_.resize(config.super_peers);
  for (std::size_t leaf = 0; leaf < config.leaves; ++leaf) {
    leaf_profiles_.push_back(workload::InterestProfile::sample(
        rng_, config.content.categories, config.interest_breadth));
    leaf_stores_[leaf].populate(catalogue_, leaf_profiles_[leaf],
                                config.files_per_leaf, rng_);
    const std::size_t super_peer = rng_.index(config.super_peers);
    leaf_super_[leaf] = super_peer;
    for (workload::FileId file : leaf_stores_[leaf].files()) {
      index_[super_peer][file].push_back(leaf);
    }
  }
  seen_stamp_.assign(config.super_peers, 0);
}

workload::FileId SuperPeerNetwork::sample_target(std::size_t leaf) {
  const workload::Category category =
      leaf_profiles_[leaf].sample_category(rng_);
  return catalogue_.sample_in(category, rng_);
}

std::size_t SuperPeerNetwork::replica_count(workload::FileId file) const {
  std::size_t count = 0;
  for (const auto& store : leaf_stores_) count += store.has(file) ? 1u : 0u;
  return count;
}

SuperPeerOutcome SuperPeerNetwork::search(std::size_t leaf,
                                          workload::FileId file) {
  assert(leaf < leaf_stores_.size());
  SuperPeerOutcome outcome;
  const std::size_t home = leaf_super_[leaf];

  // Leaf -> its super-peer.
  outcome.query_messages = 1;
  outcome.hops = 1;

  // Local index check (free: the super-peer holds the index).
  if (index_[home].contains(file)) {
    outcome.hit = true;
    outcome.local_hit = true;
    outcome.reply_messages = 1;  // SP -> leaf notification
    return outcome;
  }

  // Flood among super-peers with TTL and duplicate suppression.
  if (++stamp_ == 0) {
    std::fill(seen_stamp_.begin(), seen_stamp_.end(), 0u);
    stamp_ = 1;
  }
  struct InFlight {
    NodeId node;
    NodeId from;
    std::uint32_t depth;
    std::uint32_t ttl;
  };
  std::deque<InFlight> frontier;
  seen_stamp_[home] = stamp_;
  for (NodeId neighbor : super_graph_.neighbors(static_cast<NodeId>(home))) {
    ++outcome.query_messages;
    frontier.push_back({neighbor, static_cast<NodeId>(home), 1, flood_ttl_ - 1});
  }
  std::uint32_t hit_depth = 0;
  while (!frontier.empty()) {
    const InFlight msg = frontier.front();
    frontier.pop_front();
    if (seen_stamp_[msg.node] == stamp_) continue;
    seen_stamp_[msg.node] = stamp_;
    if (!outcome.hit && index_[msg.node].contains(file)) {
      outcome.hit = true;
      hit_depth = msg.depth;
      // Reply routes back along the super-peer path, then SP -> leaf.
      outcome.reply_messages = msg.depth + 1;
    }
    if (msg.ttl == 0) continue;
    for (NodeId neighbor : super_graph_.neighbors(msg.node)) {
      if (neighbor == msg.from) continue;
      ++outcome.query_messages;
      frontier.push_back({neighbor, msg.node, msg.depth + 1, msg.ttl - 1});
    }
  }
  if (outcome.hit) outcome.hops += hit_depth + 1;  // + SP -> serving leaf
  return outcome;
}

}  // namespace aar::overlay
