#pragma once
// Shared state for the sharded aar_node daemon (docs/NODE.md): everything
// the per-shard socket loops must agree on lives here, behind the same
// determinism discipline aar::par established — shards accumulate privately
// and a canonical-order merge publishes immutable snapshots that the hot
// loops read lock-free.
//
//   * QueryTable — the GUID join/route table (query GUID -> origin
//     connection, query key, rule-routed flag), striped by GUID hash so
//     shards handling different connections rarely contend.  One insert at
//     query time serves both the QueryHit reverse path and the miner join.
//   * PeerDirectory — the live-connection roster.  Mutating it (accept /
//     disconnect) publishes a fresh immutable, id-sorted PeerList;
//     shards cache the list by version counter and re-fetch only when the
//     version moves, so steady-state lookups are one relaxed atomic load
//     plus a binary search.  Per-peer `stalled` flags are atomics written
//     by the owning shard's retry ladder and read by every shard's
//     rule-target filter.
//   * MiningHub — one IncrementalRuleMiner over the node's sliding window.
//     Shards append observed pairs to their own ShardWindow, which holds
//     only the pairs mined since the last merge; every `rebuild_every`
//     pairs the crossing shard merges: it takes the pending pairs of every
//     shard, drops those naming a departed peer, sorts the rest by
//     (capture time, GUID), add()s them to the miner — whose bounded
//     window evicts the oldest pairs — and publishes the snapshot rule set
//     as an immutable RoutingSnapshot via pointer swap.  Relay never blocks
//     on mining: queries route against the last published snapshot.
//
// Determinism: capture time is a global atomic message counter, so every
// observed pair carries a unique timestamp, and the sorted batch is
// invariant under the connection-to-shard partition.  Under a lockstep
// driver every pair is appended before the next frame is read, so each
// batch is newer than the window it joins and the window is the newest
// `window` pairs in capture order, less those a disconnect purged, for
// any shard count.  RuleSet
// serialization is canonical (sorted), so the published rule bytes depend
// only on the window's pair multiset.

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/ruleset.hpp"
#include "gnutella/codec.hpp"
#include "mining/incremental_miner.hpp"
#include "trace/record.hpp"

namespace aar::lsm {
class Store;  // src/lsm/store.hpp — only daemon.cpp/shard.cpp need the type
}  // namespace aar::lsm

namespace aar::node {

using gnutella::NeighborId;

/// Everything the daemon remembers about an observed query GUID: where it
/// came from (the QueryHit reverse path), its normalized key and routing
/// mode (the miner join).  `minable` is false for queries that were
/// observed but not relayed (duplicates keep the original entry; a
/// TTL-expired first sighting records the route but never joins a pair) —
/// exactly the old daemon's route-table/pending-table split.
struct QueryState {
  NeighborId from = 0;
  trace::QueryKey key = 0;
  bool rule_routed = false;
  bool minable = false;
};

/// GUID -> QueryState, striped by GUID hash.  Entries are never evicted:
/// ids are 64-bit folds of wire GUIDs and the serving gates stay far below
/// memory pressure (the old daemon kept its route table unbounded too).
class QueryTable {
 public:
  struct Stripe {
    std::mutex mu;
    std::unordered_map<std::uint64_t, QueryState> map;
  };

  /// The stripe owning `guid`; callers lock `stripe.mu` around map access.
  [[nodiscard]] Stripe& stripe(std::uint64_t guid) noexcept {
    // SplitMix64 finalizer — the same GUID spreader aar::par shards by.
    std::uint64_t z = guid + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return stripes_[(z ^ (z >> 31)) & (kStripes - 1)];
  }

 private:
  static constexpr std::size_t kStripes = 64;
  std::array<Stripe, kStripes> stripes_;
};

/// One live neighbor connection as every shard sees it.  `stalled` is
/// written by the owning shard's send ladder and read by rule-target
/// filters on all shards.  `departed` is set when the connection closes,
/// before its purge: a merge holding a roster fetched earlier still sees
/// it, so a pair mined for a departed peer never joins the window.
struct Peer {
  NeighborId id = 0;
  std::uint32_t shard = 0;
  std::atomic<bool> stalled{false};
  std::atomic<bool> departed{false};
};

/// Immutable, id-sorted roster published on every accept/disconnect.
using PeerList = std::vector<std::shared_ptr<Peer>>;

/// Find `id` in an id-sorted roster; nullptr when departed.
[[nodiscard]] const std::shared_ptr<Peer>* find_peer(const PeerList& list,
                                                     NeighborId id) noexcept;

class PeerDirectory {
 public:
  PeerDirectory() : list_(std::make_shared<const PeerList>()) {}

  std::shared_ptr<Peer> add(NeighborId id, std::uint32_t shard);
  void remove(NeighborId id);

  /// Current roster (immutable snapshot; cheap shared_ptr copy).
  [[nodiscard]] std::shared_ptr<const PeerList> list() const;
  /// Bumped on every add/remove — shards poll this relaxed and re-fetch
  /// list() only when it moved.
  [[nodiscard]] std::uint64_t version() const noexcept {
    return version_.load(std::memory_order_acquire);
  }

 private:
  mutable std::mutex mu_;
  std::shared_ptr<const PeerList> list_;
  std::atomic<std::uint64_t> version_{1};
};

/// One shard's pairs mined since the last merge, appended on the shard
/// thread and taken under the merge lock.  The window itself lives only
/// in the hub's miner.
class ShardWindow {
 public:
  void append(const trace::QueryReplyPair& pair);
  /// Move the pending pairs to the end of `out`, leaving none behind.
  void take(std::vector<trace::QueryReplyPair>& out);

 private:
  std::mutex mu_;
  std::vector<trace::QueryReplyPair> pairs_;
};

/// The published routing state: the rule set shards forward against.
struct RoutingSnapshot {
  core::RuleSet rules;
};

/// Owns the miner and the published RoutingSnapshot.  All mutation happens
/// under one merge mutex (count-boundary merges and disconnect purges);
/// readers take the current snapshot through an atomic version + pointer.
class MiningHub {
 public:
  /// `shards` is unused: the merge takes however many windows it is given.
  MiningHub(mining::MinerConfig config, std::size_t rebuild_every,
            std::size_t shards);

  /// Account one observed pair; true when this pair crosses the
  /// rebuild_every boundary and the caller must merge().
  [[nodiscard]] bool note_pair() noexcept {
    return since_merge_.fetch_add(1, std::memory_order_acq_rel) + 1 >=
           rebuild_every_;
  }

  /// Canonical merge: take every shard's pending pairs, drop those naming a
  /// peer that is missing from `live` or flagged departed, sort by
  /// (capture time, GUID), add them to the miner (evicting its oldest
  /// pairs), snapshot, publish.
  void merge(std::vector<ShardWindow>& windows, const PeerList& live);
  /// merge() when pairs were noted since the last one: the shutdown path,
  /// so the final checkpoint holds the pairs mined since the last rebuild.
  void merge_pending(std::vector<ShardWindow>& windows, const PeerList& live);

  /// Disconnect purge: drop `host`'s pairs from the miner and republish —
  /// the next published snapshot never routes at the dead peer, and no
  /// later merge brings its pairs back (Peer::departed).  Eviction
  /// accounting is untouched (purge_host), so concurrent disconnect order
  /// cannot skew mining.evictions.
  void purge(NeighborId host);

  /// The miner's merged window, oldest pair first — the daemon's durable
  /// checkpoint payload.  The published rule bytes are a pure function of
  /// this sequence (same miner config), so a restart that replays it
  /// through restore_window() republishes byte-identical rules.
  [[nodiscard]] std::vector<trace::QueryReplyPair> window_pairs() const;

  /// Feed a checkpointed window back through the miner (oldest first) and
  /// publish the resulting snapshot.  Call before serving starts: pairs
  /// restored here carry their original capture times, so the daemon's
  /// clock must be advanced past the newest of them by the caller.
  void restore_window(std::span<const trace::QueryReplyPair> pairs);

  [[nodiscard]] std::shared_ptr<const RoutingSnapshot> routing() const;
  [[nodiscard]] std::uint64_t routing_version() const noexcept {
    return version_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::uint64_t snapshots() const noexcept {
    return snapshots_.load(std::memory_order_relaxed);
  }

 private:
  void publish_locked();

  const std::size_t rebuild_every_;
  std::atomic<std::uint64_t> since_merge_{0};
  std::atomic<std::uint64_t> snapshots_{0};
  std::atomic<std::uint64_t> version_{1};

  mutable std::mutex mu_;
  mining::IncrementalRuleMiner miner_;
  std::vector<trace::QueryReplyPair> batch_;  // merge scratch
  std::shared_ptr<const RoutingSnapshot> snapshot_;
};

class Shard;

/// A frame crossing shards: serialized once at the deciding shard, enqueued
/// on the owning shard's connections.
struct RelayFrame {
  std::shared_ptr<const std::vector<std::uint8_t>> bytes;
  gnutella::MessageType type{};
  std::vector<NeighborId> targets;
};

/// The state every shard loop shares; owned by the Daemon, outlives shards.
struct SharedState {
  QueryTable queries;
  PeerDirectory peers;
  std::vector<ShardWindow> windows;  // index = shard
  std::unique_ptr<MiningHub> hub;
  /// Capture clock: one tick per decoded frame, globally unique pair times.
  std::atomic<std::uint64_t> clock{0};
  /// Durable rule archive (nullptr without --state-dir): every mined pair
  /// is also folded into this lsm store, off the relay hot path's locks.
  lsm::Store* archive = nullptr;
  /// Wired by the Daemon after construction (cross-shard relay hand-off).
  std::vector<Shard*> shards;
  /// The daemon's bound serving port, advertised in keepalive Pongs.
  std::uint16_t serving_port = 0;
};

}  // namespace aar::node
