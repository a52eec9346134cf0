#pragma once
// Sharded discrete-event overlay engine (docs/SIMULATION.md).
//
// aar::sim::Engine is the overlay simulator: Gnutella-style search (TTL,
// duplicate suppression, QueryHits routed back along the reverse path so
// every peer on it can learn) as a discrete-event system built to scale to
// millions of peers:
//
//   * struct-of-arrays peer state — fixed-stride sorted per-peer store
//     rows, a file -> holders index, stamp-versioned queued/holder/parent
//     arrays — instead of one Peer object (hash-set store, heap policy) per
//     node;
//   * peers are partitioned into shards (shard(node) = node % shards);
//     each shard owns a calendar event queue keyed on virtual time;
//   * one virtual-time round = a PARALLEL phase (each shard scans its slot
//     and computes the pure per-peer work: duplicate suppression, the hit
//     check against the pass's holder marks, policy routing into per-shard
//     emission buffers) followed by a SERIAL apply phase that replays the
//     per-shard results in canonical order — the slot's push-order log
//     names the shard of each event — and performs everything
//     order-sensitive: fault rng draws, reply delivery and learning,
//     message accounting, budget checks, and scheduling of the next hop;
//   * a final hop (TTL 0) due next round that is its recipient's first
//     visit is settled when sent, in one loop over its sender's targets: it
//     never enters a queue, and only a hit keeps an entry in the log,
//     answered at its place in canonical order.  A duplicate is settled
//     too.  Settled messages with no work are only counted per slot.
//
// Peer behaviour: one overlay::RoutingPolicy per peer, made by a
// PolicyFactory (flooding, k-random walks, interest shortcuts, routing
// indices, association routing).  route() runs in the parallel phase of a
// duplicate-suppressed pass, for distinct peers at once, and touches only
// its own peer's state and a per-call rng stream; every other hook runs in
// the serial phase, in canonical event order.
//
// Revisiting passes: while any peer's policy allows revisits (k-random
// walks), a policy-routed pass has no parallel phase.  Every message is
// queued, and the serial phase decides first visits from a per-pass seen
// stamp and routes each event itself, in push order, with the shared rng.
//
// Determinism: every shared-rng draw and every cross-peer mutation happens
// in the serial phase, in an order that depends only on (time, send order)
// — never on the thread or shard count.  Outcomes are byte-equal for any
// threads/shards configuration; the pinned digests of the overlay and
// differential suites hold the kLegacy construction mode to the reference
// outcomes bit for bit.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "overlay/graph.hpp"
#include "overlay/policy.hpp"
#include "overlay/search.hpp"
#include "sim/event.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "workload/content.hpp"
#include "workload/interests.hpp"

namespace aar::sim {

/// Mix a salt into a seed (split-seed discipline, as in aar::fault): child
/// streams never perturb, and are never perturbed by, the parent stream.
[[nodiscard]] inline std::uint64_t split_seed(std::uint64_t seed,
                                              std::uint64_t salt) noexcept {
  std::uint64_t state = seed ^ ((salt + 1) * 0x9e3779b97f4a7c15ULL);
  return util::splitmix64(state);
}

struct EngineConfig {
  std::uint64_t seed = 1;
  std::size_t files_per_node = 24;
  std::size_t interest_breadth = 3;
  std::uint32_t default_ttl = 7;
  workload::ContentConfig content{};

  /// How peer state is constructed.
  enum class Build : std::uint8_t {
    /// One workload rng, drawn sequentially: profile then store per peer.
    /// The construction stream of the overlay benches (N1-N6) and the fault
    /// goldens; O(n) serial.
    kLegacy,
    /// Split-seed construction: catalogue from its own stream, each peer's
    /// profile/store from a per-PEER stream — build parallelizes and the
    /// result is independent of both the shard and the thread count.
    kSharded,
  };
  Build build = Build::kLegacy;

  /// Peer partitions (0 = max(8, threads)).  Never affects outcomes.
  std::size_t shards = 0;
  /// Parallel-phase workers (1 = fully serial; 0 = hardware concurrency).
  std::size_t threads = 1;
  /// Record the sim.engine.* metric family (overlay.* is always recorded;
  /// the fault runner switches this off so its metrics snapshot holds the
  /// overlay.* family alone).
  bool engine_metrics = true;
};

/// The engine.
class Engine {
 public:
  /// Throws std::invalid_argument if `factory` returns a null policy.
  Engine(const EngineConfig& config, overlay::Graph graph,
         overlay::PolicyFactory factory);

  /// Issue one query and simulate it to completion.
  overlay::SearchOutcome search(NodeId origin, workload::FileId target,
                                const overlay::SearchOptions& options = {});

  /// Sample a query target matching `origin`'s interests (interest-based
  /// locality: peers ask for content in their own categories).
  [[nodiscard]] workload::FileId sample_target(NodeId origin);

  /// Peer churn: the peer at `node` departs and a fresh peer joins in its
  /// place — links dropped, `attach` new random links made, new interests,
  /// new store, and a fresh policy from the factory (every other peer's
  /// learned state about the old peer is purged).
  void replace_peer(NodeId node, std::size_t attach);
  /// Replace `count` uniformly random peers (one churn epoch).
  void churn(std::size_t count, std::size_t attach);

  /// Add an overlay link (rule-driven topology adaptation, §VI).  Returns
  /// false for self-loops and existing links.
  bool add_link(NodeId a, NodeId b);

  /// A peer's routing policy, and its replacement (adoption sweeps, A/B
  /// tests).  set_policy throws std::invalid_argument on null and keeps the
  /// old policy.
  [[nodiscard]] overlay::RoutingPolicy& policy(NodeId node);
  void set_policy(NodeId node, std::unique_ptr<overlay::RoutingPolicy> policy);

  /// Install a fault injector consulted at every hop (null uninstalls).
  void install_faults(std::unique_ptr<fault::FaultInjector> injector) {
    faults_ = std::move(injector);
  }
  [[nodiscard]] fault::FaultInjector* faults() noexcept { return faults_.get(); }

  /// A node id at or above num_nodes() throws std::out_of_range here and in
  /// search(), replace_peer() and sample_target().
  [[nodiscard]] bool store_has(NodeId node, workload::FileId file) const;
  [[nodiscard]] std::size_t store_size(NodeId node) const;
  /// The files `node` shares, sorted ascending.
  [[nodiscard]] std::span<const workload::FileId> store(NodeId node) const;
  [[nodiscard]] const workload::InterestProfile& profile(NodeId node) const;
  /// The peers whose store holds `file`, in no particular order.
  [[nodiscard]] std::span<const NodeId> holders(workload::FileId file) const;
  [[nodiscard]] const overlay::Graph& graph() const noexcept { return graph_; }
  [[nodiscard]] const workload::ContentCatalogue& catalogue() const noexcept {
    return catalogue_;
  }
  [[nodiscard]] std::size_t num_nodes() const noexcept {
    return profiles_.size();
  }
  [[nodiscard]] util::Rng& rng() noexcept { return rng_; }
  [[nodiscard]] std::size_t shards() const noexcept { return shards_; }
  [[nodiscard]] std::size_t threads() const noexcept { return threads_; }

 private:
  struct PassOutcome {
    bool hit = false;
    std::uint32_t hops_to_first_hit = 0;
    std::uint32_t replicas_found = 0;
    std::uint32_t nodes_reached = 0;
    std::uint64_t query_messages = 0;
    std::uint64_t reply_messages = 0;
    bool origin_rule_routed = false;
    bool any_rule_routed = false;
    NodeId first_server = overlay::kNoNode;
    std::uint64_t elapsed = 0;
    std::uint64_t dropped = 0;
    bool truncated = false;
  };

  struct ReplyResult {
    std::uint64_t messages = 0;
    std::uint64_t dropped = 0;
    bool delivered = true;
  };

  /// Everything one pass threads through its rounds.
  struct PassState {
    PassOutcome pass;
    std::uint64_t budget = 0;
    std::uint64_t frontier_size = 0;  ///< messages in flight
    std::size_t frontier_peak = 1;
    bool origin_decision = true;
    bool any_directed = false;
  };

  /// Per-shard working set for one round.
  struct Shard {
    ShardQueue queue;
    std::vector<EventResult> results;  ///< parallel to queue.at(now)
    std::vector<NodeId> emissions;
  };

  [[nodiscard]] std::uint32_t shard_of(NodeId node) const noexcept {
    return node % static_cast<std::uint32_t>(shards_);
  }

  void check_node(NodeId node) const;
  /// Install `node`'s policy and keep the revisit count and the learns-any
  /// list in step.  Throws std::invalid_argument on null.
  void install_policy(NodeId node,
                      std::unique_ptr<overlay::RoutingPolicy> policy);
  void build_peers_legacy();
  void build_peers_sharded();
  void write_row(NodeId node, const workload::LocalStore& store);
  void build_holder_index();
  [[nodiscard]] std::span<const workload::FileId> row(NodeId node) const {
    return {store_rows_.data() + std::size_t{node} * row_stride_,
            store_len_[node]};
  }

  PassOutcome run_pass(const overlay::Query& query, NodeId origin,
                       std::uint32_t ttl, bool force_flood,
                       std::uint64_t budget);
  void route_round(std::uint64_t now, const overlay::Query& query,
                   bool force_flood);
  void process_shard_round(Shard& shard, std::uint64_t now,
                           const overlay::Query& query, bool force_flood);
  void apply_round(std::uint64_t now, const overlay::Query& query,
                   NodeId origin, PassState& st);
  /// A revisiting pass's round: visit and route every event serially.
  void revisit_round(std::uint64_t now, const overlay::Query& query,
                     NodeId origin, PassState& st);
  /// Serial-phase halves of one event: answer a store hit, then send the
  /// routed targets on.
  void answer(const overlay::Query& query, NodeId origin,
              const QueryEvent& ev, PassState& st);
  void forward(std::uint64_t now, NodeId origin, const QueryEvent& ev,
               std::span<const NodeId> targets, bool directed, PassState& st);
  /// forward()'s loop for a duplicate-suppressed sender at TTL 1: settle
  /// each final hop due next round as it is sent.
  void settle_final_hops(std::uint64_t now, const QueryEvent& ev,
                         std::span<const NodeId> targets, PassState& st);
  /// Send one hop that the fault verdict let through: truncate it past the
  /// budget, else push it (twice when duplicated).
  void send(std::uint64_t now, const QueryEvent& ev, NodeId target,
            const fault::ForwardVerdict& verdict, PassState& st);
  /// Queue `event` for `slot`, or, in a duplicate-suppressed pass, count it
  /// settled when it is a duplicate.
  void push_event(std::uint64_t slot, const QueryEvent& event);
  /// Duplicate suppression when a message to `node` is sent for `slot`.
  /// Only a peer's earliest queued message can be its first visit: true,
  /// and marked so, when none is queued for `slot` or earlier this pass;
  /// false for a duplicate, whatever happens in between.
  bool earliest_push(std::uint64_t slot, NodeId node) {
    std::uint64_t& queued = queued_[node];
    const bool earlier = queued - queue_mark(0) <= slot;  // this pass, <= slot
    queued = earlier ? queued : queue_mark(slot);
    return !earlier;
  }
  /// Does `node` hold the current pass's target and answer queries?
  [[nodiscard]] bool serves(NodeId node) const {
    return holder_stamp_[node] == stamp_ &&
           (faults_ == nullptr || faults_->shares_content(node));
  }
  /// A first visit's order-free work: record the reverse-path parent and
  /// say whether the peer answers (at most once per pass, so the holder
  /// mark alone decides the hit).
  bool visit(const QueryEvent& ev) {
    parent_[ev.node] = ev.from;
    return serves(ev.node);
  }
  ReplyResult deliver_reply(const overlay::Query& query, NodeId server);
  void next_stamp();
  [[nodiscard]] std::uint64_t queue_mark(std::uint64_t slot) const noexcept {
    return (std::uint64_t{stamp_} << 32) | slot;
  }
  void record(const overlay::SearchOutcome& outcome);

  EngineConfig config_;
  overlay::Graph graph_;
  util::Rng rng_;        ///< workload stream; routes revisiting passes
  util::Rng build_rng_;  ///< kSharded catalogue stream (unused in kLegacy)
  workload::ContentCatalogue catalogue_;

  // Struct-of-arrays peer state.
  std::vector<workload::InterestProfile> profiles_;
  std::size_t row_stride_ = 0;                ///< files_per_node
  std::vector<workload::FileId> store_rows_;  ///< n rows; sorted used prefix
  std::vector<std::uint32_t> store_len_;      ///< used prefix of each row
  std::vector<std::vector<NodeId>> holders_;  ///< file -> peers storing it

  overlay::PolicyFactory factory_;
  std::vector<std::unique_ptr<overlay::RoutingPolicy>> policies_;
  std::size_t revisiting_ = 0;  ///< peers whose policy allows_revisit()
  /// Peers whose policy can learn any id (!learns_only_neighbors()), sorted.
  std::vector<NodeId> learns_any_;
  std::vector<NodeId> purge_scratch_;
  std::unique_ptr<fault::FaultInjector> faults_;

  // Stamp-versioned per-query scratch (never cleared between searches).
  /// stamp << 32 | arrival slot of the peer's earliest queued message this
  /// pass (slots stay far below 2^32: the calendar holds one vector each).
  /// In a revisiting pass it is the seen stamp: set at the first visit.
  std::vector<std::uint64_t> queued_;
  std::vector<std::uint32_t> holder_stamp_;  ///< == stamp_: holds the target
  std::vector<NodeId> parent_;
  std::uint32_t stamp_ = 0;
  trace::Guid next_guid_ = 1;
  std::uint64_t search_clock_ = 0;

  std::size_t shards_ = 1;
  std::size_t threads_ = 1;
  bool revisit_pass_ = false;  ///< the current pass routes serially
  std::vector<Shard> shard_state_;
  SlotOrder order_;                            ///< pushes with work, per slot
  /// Settled messages with no work left, per slot (see OrderEntry).
  std::vector<std::uint32_t> settled_;
  ShardQueue settled_hits_;                    ///< kSettledHit events, per slot
  std::vector<std::size_t> cursor_;            ///< apply-phase shard cursors
  std::vector<NodeId> probe_scratch_;
  std::unique_ptr<util::ThreadPool> pool_;     ///< null when threads_ == 1
  obs::Timer* route_timer_ = nullptr;          ///< set with engine_metrics
  obs::Timer* apply_timer_ = nullptr;
};

}  // namespace aar::sim
