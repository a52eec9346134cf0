#pragma once
// Deterministic fault injection for the overlay simulator (docs/FAULTS.md).
//
// The paper's adaptive strategies exist because real Gnutella overlays are
// unreliable: reply paths drift, peers vanish mid-query, and free riders
// forward queries they will never answer.  This module models exactly that
// regime while keeping every run reproducible: the overlay consults a
// FaultInjector at every message hop and peer touch, and every stochastic
// fault decision derives from the fault seed alone — a forward's verdict
// hashes the message's key, reply and probe losses draw from one util::Rng
// — so a run is a pure function of (topology seed, fault seed).
//
//   * FaultPlan       — the static fault model: message drop / duplicate
//                       probabilities, per-hop delay in stamps, per-link
//                       drop overrides, and initial peer states
//                       (healthy / crashed / slow / free-riding).
//   * FaultSchedule   — timed events over the search clock: crash node X at
//                       stamp S, partition the overlay, heal at S'.
//   * FaultInjector   — runtime state: applies the schedule, answers "was
//                       this message lost / duplicated / delayed?" and
//                       "does this peer answer queries?", and counts every
//                       injected fault into the fault.* obs metrics.
//
// FaultPlan::none() with an empty schedule injects nothing and draws
// nothing: sim::Engine with such an injector is bit-for-bit identical to an
// engine with no injector at all (enforced by differential tests).

#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace aar::fault {

/// Same width as overlay::NodeId; kept local so aar_fault stays a leaf
/// library the overlay can link without a cycle.
using NodeId = std::uint32_t;

enum class PeerState : std::uint8_t {
  healthy,      ///< receives, forwards, and answers
  crashed,      ///< every message addressed to it is lost
  slow,         ///< each hop touching it costs `slow_extra` more stamps
  free_riding,  ///< forwards queries but never answers from its store
};

[[nodiscard]] std::string to_string(PeerState state);
/// Parses "healthy" / "crashed" / "slow" / "free-riding"; throws
/// std::runtime_error on anything else.
[[nodiscard]] PeerState peer_state_from(const std::string& word);

/// The static fault model.  Default-constructed == FaultPlan::none().
struct FaultPlan {
  /// Per-message loss probability (query forwards, reply hops, probes).
  double drop = 0.0;
  /// Per-forward probability that a query message is delivered twice.
  double duplicate = 0.0;
  /// Per-hop extra delay, uniform in [0, max_delay] stamps.
  std::uint32_t max_delay = 0;
  /// Additional stamps per hop when either endpoint is slow.
  std::uint32_t slow_extra = 4;

  /// Initial non-healthy peers.
  struct PeerOverride {
    NodeId node = 0;
    PeerState state = PeerState::healthy;
  };
  std::vector<PeerOverride> peers;

  /// Per-link drop-probability overrides (undirected; replaces `drop`).
  struct LinkDrop {
    NodeId a = 0;
    NodeId b = 0;
    double drop = 0.0;
  };
  std::vector<LinkDrop> links;

  [[nodiscard]] static FaultPlan none() noexcept { return {}; }

  /// True when the plan can never lose, duplicate, or delay a message —
  /// i.e. the injector will never draw.
  [[nodiscard]] bool lossless() const noexcept {
    return drop == 0.0 && duplicate == 0.0 && max_delay == 0 &&
           peers.empty() && links.empty();
  }
};

/// One timed event over the search clock (one search == one clock stamp).
struct FaultEvent {
  enum class Kind : std::uint8_t {
    crash,           ///< node -> crashed
    heal,            ///< node -> healthy
    set_state,       ///< node -> `state`
    partition,       ///< sever links between {id < pivot} and {id >= pivot}
    heal_partition,  ///< remove the partition
  };

  std::uint64_t at = 0;  ///< applied before the search with clock >= at
  Kind kind = Kind::crash;
  NodeId node = 0;                         ///< crash / heal / set_state
  PeerState state = PeerState::healthy;    ///< set_state
  NodeId pivot = 0;                        ///< partition
};

/// A script of timed events, kept sorted by `at` (stable for equal stamps,
/// so a file's order is the tie-break).
class FaultSchedule {
 public:
  void add(const FaultEvent& event);
  [[nodiscard]] const std::vector<FaultEvent>& events() const noexcept {
    return events_;
  }
  [[nodiscard]] bool empty() const noexcept { return events_.empty(); }

 private:
  std::vector<FaultEvent> events_;
};

/// Why a query forward was lost.
enum class Loss : std::uint8_t {
  none,     ///< delivered
  severed,  ///< an active partition separates the ends
  crashed,  ///< the recipient is crashed
  dropped,  ///< lost in transit (the plan's or the link's drop probability)
};

/// Verdict for one query forward: a pure function of its ForwardKey.
struct ForwardVerdict {
  Loss loss = Loss::none;
  bool duplicated = false;
  std::uint32_t delay = 0;  ///< extra stamps on top of the 1-stamp hop

  [[nodiscard]] bool dropped() const noexcept { return loss != Loss::none; }
  /// True when the hop arrives exactly once, one stamp after it is sent.
  /// sim::Engine settles such a final hop without queueing it, so a field
  /// that changes how a delivered hop arrives must make this false.
  [[nodiscard]] bool plain() const noexcept {
    return !dropped() && !duplicated && delay == 0;
  }
};

/// Names one query forward.  `sender` is FaultInjector::sender_key of the
/// sending event — (search clock, pass, slot, from, copy) hashed once for
/// all of its hops — and `index` is the hop's place in the sender's target
/// list, so two messages of one pass never share a key, even when a walker
/// sends twice along one link.
struct ForwardKey {
  std::uint64_t sender = 0;
  NodeId from = 0;
  NodeId to = 0;
  std::uint32_t index = 0;
};

/// Forward verdicts counted by their fault.* counter.  A thread that judges
/// hops keeps its own and hands it to FaultInjector::record.
struct ForwardTally {
  std::uint64_t dropped = 0;       ///< fault.forward_dropped
  std::uint64_t crashed_rx = 0;    ///< fault.crashed_rx
  std::uint64_t severed = 0;       ///< fault.partition_severed
  std::uint64_t duplicated = 0;    ///< fault.duplicated
  std::uint64_t delay_stamps = 0;  ///< fault.delay_stamps

  void add(const ForwardVerdict& verdict) noexcept {
    dropped += verdict.loss == Loss::dropped ? 1u : 0u;
    crashed_rx += verdict.loss == Loss::crashed ? 1u : 0u;
    severed += verdict.loss == Loss::severed ? 1u : 0u;
    duplicated += verdict.duplicated ? 1u : 0u;
    delay_stamps += verdict.delay;
  }
  ForwardTally& operator+=(const ForwardTally& other) noexcept {
    dropped += other.dropped;
    crashed_rx += other.crashed_rx;
    severed += other.severed;
    duplicated += other.duplicated;
    delay_stamps += other.delay_stamps;
    return *this;
  }
};

/// Runtime fault state for one overlay.  A forward's verdict is a hash of
/// its key and the fault seed, so any thread may decide any hop in any
/// order; reply and probe losses and retry jitter draw from a dedicated rng.
/// Both derive from `fault_seed` through splitmix64, so the fault stream
/// never perturbs (and is never perturbed by) the overlay's own topology /
/// workload rng.
class FaultInjector {
 public:
  FaultInjector(FaultPlan plan, FaultSchedule schedule,
                std::uint64_t fault_seed, std::size_t nodes);

  /// Advance the search clock and apply every scheduled event with
  /// `at <= clock`.  Called by sim::Engine::search once per search.
  void begin_search(std::uint64_t clock);

  /// The sender's part of a ForwardKey: the search clock, the pass's ordinal
  /// within its search, the slot the sending event arrived in, the sender,
  /// and `copy`, which tells apart the events one peer routes in one slot
  /// (a walker revisiting; 0 where a peer routes at most once per pass).
  [[nodiscard]] std::uint64_t sender_key(std::uint32_t pass,
                                         std::uint64_t slot, NodeId from,
                                         std::uint32_t copy) const noexcept {
    const std::uint64_t h = util::mix64(
        clock_key_ ^ ((std::uint64_t{pass} << 32) | (slot & 0xffffffffULL)));
    return util::mix64(h ^ ((std::uint64_t{from} << 32) | copy));
  }

  /// Fault verdict for a query forward: partitions, crashes, link
  /// overrides, duplicates, delay and slow peers.  A pure function of the
  /// fault seed, the key and the fault state (plan, peer states,
  /// partition), which change only between searches: it draws from no rng,
  /// counts nothing (the caller hands what it acted on to record()), and
  /// may run on any thread.
  [[nodiscard]] ForwardVerdict on_forward(const ForwardKey& key) const;
  /// on_forward for every hop one sender sends: `fn(i, verdict)` for each
  /// of `to`, in order, keyed {sender, from, to[i], i}.  A plain hop — no
  /// partition, a plan with no link overrides, duplicates or delay, and
  /// neither end crashed or slow — needs only the drop draw: the sender's
  /// part of that test is made once, and such a hop costs one state load
  /// and one hash.
  template <typename Fn>
  void on_forwards(std::uint64_t sender, NodeId from,
                   std::span<const NodeId> to, Fn&& fn) const {
    const auto key = [&](std::size_t i) {
      return ForwardKey{sender, from, to[i], static_cast<std::uint32_t>(i)};
    };
    if (!plain_plan_ || partitioned_ || !plain_peer(from)) {
      for (std::size_t i = 0; i < to.size(); ++i) {
        fn(i, on_forward(key(i)));
      }
      return;
    }
    // Locals: a byte store in `fn` may alias any member.
    const PeerState* const states = states_.data();
    const std::size_t known = states_.size();
    const std::uint64_t drop_below = drop_below_;
    for (std::size_t i = 0; i < to.size(); ++i) {
      if (to[i] < known && !plain_state(states[to[i]])) {
        fn(i, on_forward(key(i)));
        continue;
      }
      ForwardVerdict verdict;
      if ((draw(key(i), 0) >> 11) < drop_below) verdict.loss = Loss::dropped;
      fn(i, verdict);
    }
  }
  /// Fold counted forward verdicts into the fault.* counters.
  void record(const ForwardTally& tally);
  /// True when a reply hop `from -> to` is lost in transit.
  [[nodiscard]] bool reply_lost(NodeId from, NodeId to);
  /// True when a direct shortcut probe `from -> to` goes unanswered.
  [[nodiscard]] bool probe_lost(NodeId from, NodeId to);

  [[nodiscard]] PeerState state(NodeId node) const {
    return node < states_.size() ? states_[node] : PeerState::healthy;
  }
  [[nodiscard]] bool crashed(NodeId node) const {
    return state(node) == PeerState::crashed;
  }
  /// Healthy and slow peers answer from their stores; crashed and
  /// free-riding peers do not.
  [[nodiscard]] bool shares_content(NodeId node) const {
    const PeerState s = state(node);
    return s == PeerState::healthy || s == PeerState::slow;
  }
  void set_state(NodeId node, PeerState state);
  /// True when some forward may arrive late: the plan delays hops, or a
  /// peer is slow.  Changes only with the peer states.
  [[nodiscard]] bool may_delay() const noexcept {
    return plan_.max_delay > 0 || (plan_.slow_extra > 0 && slow_peers_ > 0);
  }

  void partition(NodeId pivot);
  void heal_partition();
  [[nodiscard]] bool partitioned() const noexcept { return partitioned_; }
  /// True when the active partition separates a and b.
  [[nodiscard]] bool severed(NodeId a, NodeId b) const noexcept {
    return partitioned_ && (a < pivot_) != (b < pivot_);
  }

  /// A churned-out peer is replaced by a fresh (healthy) one.
  void on_peer_replaced(NodeId node);

  [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }
  [[nodiscard]] std::uint64_t clock() const noexcept { return clock_; }
  [[nodiscard]] std::uint64_t events_applied() const noexcept {
    return events_applied_;
  }
  [[nodiscard]] util::Rng& rng() noexcept { return rng_; }

 private:
  /// Neither crashed nor slow: the peer adds no rule to a forward's verdict.
  [[nodiscard]] static bool plain_state(PeerState s) noexcept {
    return s == PeerState::healthy || s == PeerState::free_riding;
  }
  [[nodiscard]] bool plain_peer(NodeId node) const {
    return plain_state(state(node));
  }
  /// The hop's `n`-th 64-bit draw (0 drop, 1 duplicate, 2 delay): its key
  /// hashed, then stepped as a splitmix64 stream from there.
  [[nodiscard]] static std::uint64_t draw(const ForwardKey& key,
                                          std::uint64_t n) noexcept {
    const std::uint64_t hop = util::mix64(
        key.sender ^ ((std::uint64_t{key.to} << 32) | key.index));
    return n == 0 ? hop : util::mix64(hop + n * 0x9e3779b97f4a7c15ULL);
  }
  /// A draw `bits` succeeds with probability p when `(bits >> 11) <
  /// below(p)`: util::Rng::chance's `uniform() < p`, in integers.
  [[nodiscard]] static std::uint64_t below(double p) noexcept {
    return p <= 0.0 ? 0 : p >= 1.0 ? std::uint64_t{1} << 53
                                   : static_cast<std::uint64_t>(
                                         std::ceil(p * 0x1.0p53));
  }
  [[nodiscard]] double link_drop(NodeId from, NodeId to) const;
  void apply(const FaultEvent& event);

  FaultPlan plan_;
  /// The plan has no link overrides, duplicates or delay (it never changes).
  bool plain_plan_ = false;
  std::uint64_t drop_below_;    ///< below(plan_.drop)
  std::uint64_t verdict_seed_;  ///< the fault seed's stream for verdicts
  std::uint64_t clock_key_;     ///< verdict_seed_ mixed with the clock
  std::vector<FaultEvent> events_;  ///< sorted by `at`
  std::size_t next_event_ = 0;
  std::vector<PeerState> states_;
  std::size_t slow_peers_ = 0;  ///< peers in states_ that are slow
  util::Rng rng_;
  std::uint64_t clock_ = 0;
  std::uint64_t events_applied_ = 0;
  bool partitioned_ = false;
  NodeId pivot_ = 0;
};

}  // namespace aar::fault
