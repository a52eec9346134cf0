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
//   * peers are partitioned into shards by blocks of kBlockPeers
//     consecutive ids, dealt round-robin, so no cache line of the per-peer
//     arrays holds two shards' peers; each shard owns a calendar event
//     queue keyed on virtual time;
//   * one virtual-time round = a PARALLEL phase (each shard scans its slot
//     and computes the pure per-peer work: duplicate suppression, the hit
//     check against the pass's holder marks, policy routing into per-shard
//     emission buffers, and each emitted hop's fault verdict and hit mark
//     as a HopFact byte; it writes no per-peer array) followed by a SERIAL
//     apply phase that replays the per-shard results in canonical order —
//     the slot's push-order log names the shard of each event — and
//     performs everything order-sensitive: first-visit marks and
//     reverse-path parents, reply delivery and learning, message
//     accounting, budget checks, and scheduling of the next hop;
//   * the calling thread and the pool's workers claim a parallel round's
//     shards one at a time; a worker keeps watching for the next round for
//     a while before it goes back to the pool, so most rounds start with
//     no wake-up;
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

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <new>
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

/// A std::vector allocator whose storage starts on a 64-byte cache line, so
/// a block of consecutive elements can own whole lines.
template <typename T>
struct LineAligned {
  using value_type = T;
  static constexpr std::align_val_t kAlign{64};
  LineAligned() = default;
  template <typename U>
  LineAligned(const LineAligned<U>& /*other*/) noexcept {}
  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T), kAlign));
  }
  void deallocate(T* p, std::size_t /*n*/) noexcept {
    ::operator delete(p, kAlign);
  }
  friend bool operator==(const LineAligned&, const LineAligned&) {
    return true;
  }
};

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
  /// tests).  The next pass sees what a caller changed through policy().
  /// set_policy throws std::invalid_argument on null and keeps the old
  /// policy.
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
  /// `node`'s row of the flat adjacency that routing reads, rebuilt first
  /// when churn or add_link changed the graph since the last rebuild.
  [[nodiscard]] std::span<const NodeId> routing_neighbors(NodeId node);
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
    std::vector<std::uint8_t> facts;  ///< HopFact per emission
    fault::ForwardTally tally;        ///< verdicts judged, folded per pass
  };

  /// Peers per partition block: one cache line of a u32 per-peer array,
  /// two of `queued_`.  Blocks are dealt round-robin, so the low-id hubs of
  /// a Barabási–Albert overlay spread over every shard.
  static constexpr std::uint32_t kBlockPeers = 16;
  [[nodiscard]] std::uint32_t shard_of(NodeId node) const noexcept {
    return (node / kBlockPeers) % static_cast<std::uint32_t>(shards_);
  }

  void check_node(NodeId node) const;
  /// Install `node`'s policy and keep the revisit count, the learns-any
  /// list and its flood mark in step.  Throws std::invalid_argument on null.
  void install_policy(NodeId node,
                      std::unique_ptr<overlay::RoutingPolicy> policy);
  /// Re-read `node`'s floods_all() after a hook that may have changed it.
  void mark_flood(NodeId node) {
    floods_[node] = policies_[node]->floods_all() ? 1 : 0;
  }
  void build_peers_legacy();
  void build_peers_sharded();
  void write_row(NodeId node, const workload::LocalStore& store);
  void build_holder_index();
  [[nodiscard]] std::span<const workload::FileId> row(NodeId node) const {
    return {store_rows_.data() + std::size_t{node} * row_stride_,
            store_len_[node]};
  }

  /// Rebuild the flat adjacency when the graph changed since the last one.
  void refresh_adjacency();
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId node) const {
    return {adj_ids_.data() + adj_offsets_[node],
            adj_offsets_[node + 1] - adj_offsets_[node]};
  }

  PassOutcome run_pass(const overlay::Query& query, NodeId origin,
                       std::uint32_t ttl, bool force_flood,
                       std::uint64_t budget);
  void route_round(std::uint64_t now, const overlay::Query& query,
                   bool force_flood);
  /// Route shards of the current parallel round, one claim at a time,
  /// until none is left.  The calling thread and the pool's workers all run
  /// it; a claim always names a shard of the round then current.
  void claim_shards();
  /// A pool worker's task: claim shards of this round and of the rounds that
  /// follow while they come soon enough (see kServeSpins in engine.cpp).
  void serve();
  /// The claim word: round << 40 | shards << 20 | next shard.  A claim is a
  /// fetch_add on it, so a shard index always comes with its own round's
  /// shard count.
  static constexpr std::uint64_t kFieldMask = (1u << 20) - 1;
  [[nodiscard]] static std::uint64_t claim_word(std::uint64_t round,
                                                std::uint64_t shards) noexcept {
    return (round << 40) | (shards << 20);
  }
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
  /// Judge `ev`'s routed targets into one HopFact each.  Order-free: the
  /// route phase calls it on any thread, revisit_round serially.  `copy`
  /// tells apart the events one peer routes in one slot (see sender_key).
  void judge_hops(std::uint64_t now, const QueryEvent& ev, std::uint32_t copy,
                  std::span<const NodeId> targets, std::uint8_t* facts,
                  fault::ForwardTally& tally) const;
  /// The verdict of hop `index` of `ev`, decided again where its HopFact
  /// says only that it is neither dropped nor plain.
  [[nodiscard]] fault::ForwardVerdict verdict_of(std::uint64_t now,
                                                 const QueryEvent& ev,
                                                 std::uint32_t copy,
                                                 NodeId target,
                                                 std::size_t index) const;
  /// `facts` holds the judge_hops byte of each target.
  void forward(std::uint64_t now, NodeId origin, const QueryEvent& ev,
               std::uint32_t copy, std::span<const NodeId> targets,
               std::span<const std::uint8_t> facts, bool directed,
               PassState& st);
  /// forward()'s loop for a duplicate-suppressed sender at TTL 1: settle
  /// each final hop due next round as it is sent.
  void settle_final_hops(std::uint64_t now, const QueryEvent& ev,
                         std::span<const NodeId> targets,
                         std::span<const std::uint8_t> facts, PassState& st);
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
    return timed_marks_ ? claim_mark(queued_[node], queue_mark(0), slot)
                        : claim_bit(reached_bits_.data(), node);
  }
  /// earliest_push on a queued_ mark, `pass` being queue_mark(0).  First
  /// visits and duplicates interleave unpredictably: no branch.
  static bool claim_mark(std::uint64_t& mark, std::uint64_t pass,
                         std::uint64_t slot) noexcept {
    const std::uint64_t old = mark;
    const bool first = old - pass > slot;  // none this pass, <= slot
    const std::uint64_t keep = std::uint64_t{first} - 1;
    mark = (old & keep) | ((pass | slot) & ~keep);
    return first;
  }
  /// earliest_push where no hop of the pass can be delayed: a peer's first
  /// push is its earliest whatever slot it names.
  static bool claim_bit(std::uint64_t* bits, NodeId node) noexcept {
    std::uint64_t& word = bits[node >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (node & 63);
    const bool first = (word & bit) == 0;
    word |= bit;
    return first;
  }
  /// Does `node` hold the current pass's target and answer queries?
  [[nodiscard]] bool serves(NodeId node) const {
    return holder_stamp_[node] == stamp_ &&
           (faults_ == nullptr || faults_->shares_content(node));
  }
  ReplyResult deliver_reply(const overlay::Query& query, NodeId server);
  void next_stamp();
  [[nodiscard]] std::uint64_t queue_mark(std::uint64_t slot) const noexcept {
    return (std::uint64_t{stamp_} << 32) | slot;
  }
  void record(const overlay::SearchOutcome& outcome);

  EngineConfig config_;
  overlay::Graph graph_;
  /// Flat (CSR) snapshot of graph_ for routing: peer v's neighbours are
  /// adj_ids_[adj_offsets_[v], adj_offsets_[v + 1]), in graph_'s order.
  std::vector<std::uint32_t> adj_offsets_;
  std::vector<NodeId> adj_ids_;
  bool adj_stale_ = true;  ///< graph_ changed since the snapshot
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
  /// Per peer, its policy's floods_all(): the route phase floods for it
  /// without calling route().
  std::vector<std::uint8_t> floods_;
  /// policy() handed a policy out since the marks were last read: the next
  /// pass reads every mark again.
  bool floods_unread_ = false;
  /// Peers whose policy can learn any id (!learns_only_neighbors()), sorted.
  std::vector<NodeId> learns_any_;
  std::vector<NodeId> purge_scratch_;
  std::unique_ptr<fault::FaultInjector> faults_;

  // Stamp-versioned per-query scratch (never cleared between searches).
  // Each starts on a cache line, so every partition block owns its lines.
  /// stamp << 32 | arrival slot of the peer's earliest queued message this
  /// pass (slots stay far below 2^32: the calendar holds one vector each).
  /// In a revisiting pass it is the seen stamp: set at the first visit.
  std::vector<std::uint64_t, LineAligned<std::uint64_t>> queued_;
  /// == stamp_: holds the target
  std::vector<std::uint32_t, LineAligned<std::uint32_t>> holder_stamp_;
  std::vector<NodeId, LineAligned<NodeId>> parent_;
  std::uint32_t stamp_ = 0;
  trace::Guid next_guid_ = 1;
  std::uint64_t search_clock_ = 0;
  std::uint32_t pass_ = 0;  ///< the current pass's ordinal in its search

  std::size_t shards_ = 1;
  std::size_t threads_ = 1;
  bool revisit_pass_ = false;  ///< the current pass routes serially
  /// Some hop of the current pass may be delayed, so duplicate suppression
  /// keeps each peer's earliest slot in queued_; otherwise one bit per peer
  /// in reached_bits_ (an L1-sized array on a 20k-peer overlay) does.
  bool timed_marks_ = true;
  /// Per peer, a message was pushed to it this pass (untimed marks only).
  std::vector<std::uint64_t> reached_bits_;
  /// A hop of the current pass was sent with a delay: a queued message may
  /// since have been overtaken, so the route phase checks first visits.
  bool delayed_ = false;
  std::vector<Shard> shard_state_;
  SlotOrder order_;                            ///< pushes with work, per slot
  /// Settled messages with no work left, per slot (see OrderEntry).
  std::vector<std::uint32_t> settled_;
  ShardQueue settled_hits_;                    ///< kSettledHit events, per slot
  std::vector<std::size_t> cursor_;            ///< apply-phase shard cursors
  std::vector<NodeId> probe_scratch_;
  /// The parallel round being routed: what claim_shards() needs, written
  /// before `claim_` is published and read after a shard is claimed.
  struct RouteJob {
    std::uint64_t now = 0;
    const overlay::Query* query = nullptr;
    bool force_flood = false;
  };
  RouteJob job_;
  std::uint64_t round_ = 0;                   ///< parallel rounds published
  std::atomic<std::uint64_t> claim_{0};       ///< see claim_word()
  std::atomic<std::uint32_t> routed_{0};      ///< shards routed this round
  std::atomic<std::uint32_t> serving_{0};     ///< workers running serve()
  std::atomic<int> caller_cpu_{-1};  ///< CPU of the thread publishing rounds
  std::atomic<std::uint32_t> sleepers_{0};    ///< threads asleep for routed_
  std::mutex wait_mutex_;
  std::condition_variable wait_cv_;
  std::mutex error_mutex_;
  std::exception_ptr route_error_;  ///< first exception a claimed shard threw
  /// Null when threads_ == 1.  Declared after the claim state, so it is
  /// destroyed first: a worker still serving finds that state alive.
  std::unique_ptr<util::ThreadPool> pool_;
  obs::Timer* route_timer_ = nullptr;          ///< set with engine_metrics
  obs::Timer* apply_timer_ = nullptr;
};

}  // namespace aar::sim
