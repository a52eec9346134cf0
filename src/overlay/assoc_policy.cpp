#include "overlay/assoc_policy.hpp"

#include <algorithm>
#include <vector>

namespace aar::overlay {

bool AssociationRoutingPolicy::route(const Query& query, NodeId self,
                                     NodeId from,
                                     std::span<const NodeId> neighbors,
                                     util::Rng& rng,
                                     std::vector<NodeId>& out) {
  // Antecedent: the neighbor the query came from; a node's own queries use
  // its own id (they are "received from self").  A retried query widens the
  // top-k fan-out (query.widen), trading traffic for reach before the retry
  // ladder degrades all the way to flooding.
  const std::size_t first = out.size();
  if (forwarder_.choose(miner_.ruleset(), from, rng, out, query.widen) > 0) {
    // Consequents were neighbors when learned, but links may have churned:
    // keep, in place and in order, only current neighbors, never back where
    // the query came from.
    const auto gone = [&](NodeId node) {
      return node == from || node == self ||
             std::find(neighbors.begin(), neighbors.end(), node) ==
                 neighbors.end();
    };
    out.erase(std::remove_if(out.begin() + static_cast<std::ptrdiff_t>(first),
                             out.end(), gone),
              out.end());
    if (out.size() > first) {
      ++rule_hits_;
      return true;
    }
  }
  ++floods_;
  for (NodeId neighbor : neighbors) {
    if (neighbor != from) out.push_back(neighbor);
  }
  return false;
}

void AssociationRoutingPolicy::on_reply_path(const Query& query, NodeId self,
                                             NodeId upstream, NodeId downstream) {
  (void)self;
  // The miner's bounded ring buffer IS the sliding window: the observation
  // slides in (evicting the oldest beyond config_.window) and only the
  // touched antecedents' counts move.  No per-rebuild materialization.
  miner_.add(trace::QueryReplyPair{
      .time = 0.0,
      .guid = query.guid,
      .source_host = upstream,
      .replying_neighbor = downstream,
  });
  if (++observations_since_rebuild_ >= config_.rebuild_every) {
    observations_since_rebuild_ = 0;
    miner_.snapshot();
  }
}

void AssociationRoutingPolicy::on_peer_departed(NodeId node) {
  // Drop every observation that names the departed peer and refresh the
  // snapshot immediately: between churn and the next rebuild the policy
  // must not keep routing to a NodeId that now belongs to a fresh peer.
  if (miner_.purge_host(node) > 0) {
    miner_.snapshot();
    observations_since_rebuild_ = 0;
  }
}

}  // namespace aar::overlay
