#pragma once
// Deterministic fault injection for the overlay simulator (docs/FAULTS.md).
//
// The paper's adaptive strategies exist because real Gnutella overlays are
// unreliable: reply paths drift, peers vanish mid-query, and free riders
// forward queries they will never answer.  This module models exactly that
// regime while keeping every run reproducible: the overlay consults a
// FaultInjector at every message hop and peer touch, and all stochastic
// fault decisions draw from one util::Rng seeded from the fault seed alone —
// a run is a pure function of (topology seed, fault seed).
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

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
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
  /// i.e. the injector will never draw from its rng.
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

/// Verdict for one query forward, drawn deterministically from the fault rng.
struct ForwardVerdict {
  bool dropped = false;
  bool duplicated = false;
  std::uint32_t delay = 0;  ///< extra stamps on top of the 1-stamp hop

  /// True when the hop arrives exactly once, one stamp after it is sent.
  /// sim::Engine settles such a final hop without queueing it, so a field
  /// that changes how a delivered hop arrives must make this false.
  [[nodiscard]] bool plain() const noexcept {
    return !dropped && !duplicated && delay == 0;
  }
};

/// Runtime fault state for one overlay.  All probabilistic decisions draw
/// from a dedicated rng seeded by `fault_seed` through splitmix64, so the
/// fault stream never perturbs (and is never perturbed by) the overlay's own
/// topology / workload rng.
class FaultInjector {
 public:
  FaultInjector(FaultPlan plan, FaultSchedule schedule,
                std::uint64_t fault_seed, std::size_t nodes);

  /// Advance the search clock and apply every scheduled event with
  /// `at <= clock`.  Called by sim::Engine::search once per search.
  void begin_search(std::uint64_t clock);

  /// Fault verdict for a query forward `from -> to`.  A plain hop — no
  /// partition, a plan with no link overrides, duplicates or delay, and
  /// neither end crashed or slow — is decided here with the one drop draw
  /// the full rules would make; every other hop takes the full rules.
  [[nodiscard]] ForwardVerdict on_forward(NodeId from, NodeId to) {
    if (!plain_plan_ || partitioned_ || !plain_peer(from) || !plain_peer(to)) {
      return forward_verdict(from, to);
    }
    ForwardVerdict verdict;
    if (plan_.drop > 0.0 && rng_.chance(plan_.drop)) {
      verdict.dropped = true;
      forward_dropped_->add(1);
    }
    return verdict;
  }
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
  [[nodiscard]] bool plain_peer(NodeId node) const {
    const PeerState s = state(node);
    return s == PeerState::healthy || s == PeerState::free_riding;
  }
  /// on_forward's full rules: partitions, crashes, link overrides,
  /// duplicates, delay and slow peers.
  [[nodiscard]] ForwardVerdict forward_verdict(NodeId from, NodeId to);
  [[nodiscard]] double link_drop(NodeId from, NodeId to) const;
  void apply(const FaultEvent& event);

  FaultPlan plan_;
  /// The plan has no link overrides, duplicates or delay (it never changes).
  bool plain_plan_ = false;
  obs::Counter* forward_dropped_;  ///< fault.forward_dropped
  std::vector<FaultEvent> events_;  ///< sorted by `at`
  std::size_t next_event_ = 0;
  std::vector<PeerState> states_;
  util::Rng rng_;
  std::uint64_t clock_ = 0;
  std::uint64_t events_applied_ = 0;
  bool partitioned_ = false;
  NodeId pivot_ = 0;
};

}  // namespace aar::fault
