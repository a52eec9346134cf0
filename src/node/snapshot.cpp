#include "node/snapshot.hpp"

#include <algorithm>

namespace aar::node {

const std::shared_ptr<Peer>* find_peer(const PeerList& list,
                                       NeighborId id) noexcept {
  const auto it = std::lower_bound(
      list.begin(), list.end(), id,
      [](const std::shared_ptr<Peer>& peer, NeighborId want) {
        return peer->id < want;
      });
  if (it == list.end() || (*it)->id != id) return nullptr;
  return &*it;
}

std::shared_ptr<Peer> PeerDirectory::add(NeighborId id, std::uint32_t shard) {
  auto peer = std::make_shared<Peer>();
  peer->id = id;
  peer->shard = shard;
  std::lock_guard<std::mutex> lock(mu_);
  auto next = std::make_shared<PeerList>(*list_);
  next->insert(std::upper_bound(next->begin(), next->end(), id,
                                [](NeighborId want,
                                   const std::shared_ptr<Peer>& entry) {
                                  return want < entry->id;
                                }),
               peer);
  list_ = std::move(next);
  version_.fetch_add(1, std::memory_order_acq_rel);
  return peer;
}

void PeerDirectory::remove(NeighborId id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto next = std::make_shared<PeerList>(*list_);
  next->erase(std::remove_if(next->begin(), next->end(),
                             [id](const std::shared_ptr<Peer>& entry) {
                               return entry->id == id;
                             }),
              next->end());
  list_ = std::move(next);
  version_.fetch_add(1, std::memory_order_acq_rel);
}

std::shared_ptr<const PeerList> PeerDirectory::list() const {
  std::lock_guard<std::mutex> lock(mu_);
  return list_;
}

void ShardWindow::append(const trace::QueryReplyPair& pair) {
  std::lock_guard<std::mutex> lock(mu_);
  pairs_.push_back(pair);
}

void ShardWindow::take(std::vector<trace::QueryReplyPair>& out) {
  std::lock_guard<std::mutex> lock(mu_);
  out.insert(out.end(), pairs_.begin(), pairs_.end());
  pairs_.clear();
}

MiningHub::MiningHub(mining::MinerConfig config, std::size_t rebuild_every,
                     std::size_t /*shards*/)
    : rebuild_every_(rebuild_every == 0 ? 1 : rebuild_every),
      miner_(config),
      snapshot_(std::make_shared<const RoutingSnapshot>()) {}

void MiningHub::merge(std::vector<ShardWindow>& windows,
                      const PeerList& live) {
  const auto alive = [&live](trace::HostId id) {
    const std::shared_ptr<Peer>* peer =
        find_peer(live, static_cast<NeighborId>(id));
    return peer != nullptr &&
           !(*peer)->departed.load(std::memory_order_acquire);
  };
  std::lock_guard<std::mutex> lock(mu_);
  batch_.clear();
  for (ShardWindow& window : windows) window.take(batch_);
  std::erase_if(batch_, [&](const trace::QueryReplyPair& pair) {
    return !alive(pair.source_host) || !alive(pair.replying_neighbor);
  });
  std::sort(batch_.begin(), batch_.end(),
            [](const trace::QueryReplyPair& a, const trace::QueryReplyPair& b) {
              if (a.time != b.time) return a.time < b.time;
              return a.guid < b.guid;
            });
  miner_.add(batch_);
  since_merge_.store(0, std::memory_order_release);
  publish_locked();
}

void MiningHub::purge(NeighborId host) {
  std::lock_guard<std::mutex> lock(mu_);
  miner_.purge_host(host);
  publish_locked();
}

std::vector<trace::QueryReplyPair> MiningHub::window_pairs() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<trace::QueryReplyPair> out;
  out.reserve(miner_.window_size());
  for (std::size_t i = 0; i < miner_.window_size(); ++i) {
    out.push_back(miner_.window_pair(i));
  }
  return out;
}

void MiningHub::restore_window(std::span<const trace::QueryReplyPair> pairs) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const trace::QueryReplyPair& pair : pairs) miner_.add(pair);
  publish_locked();
}

std::shared_ptr<const RoutingSnapshot> MiningHub::routing() const {
  std::lock_guard<std::mutex> lock(mu_);
  return snapshot_;
}

void MiningHub::publish_locked() {
  auto next = std::make_shared<RoutingSnapshot>();
  next->rules = miner_.snapshot();  // canonical (sorted) rule state
  snapshot_ = std::move(next);
  snapshots_.fetch_add(1, std::memory_order_relaxed);
  version_.fetch_add(1, std::memory_order_acq_rel);
}

}  // namespace aar::node
