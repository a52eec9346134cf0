#include "fault/fault.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/registry.hpp"

namespace aar::fault {

namespace {

/// fault.* counters, bound once.  Every injected fault is visible in the
/// metrics snapshot (docs/OBSERVABILITY.md).
struct FaultMetrics {
  obs::Counter& forward_dropped;
  obs::Counter& reply_dropped;
  obs::Counter& probe_lost;
  obs::Counter& crashed_rx;
  obs::Counter& partition_severed;
  obs::Counter& duplicated;
  obs::Counter& delay_stamps;
  obs::Counter& schedule_events;

  static FaultMetrics& get() {
    auto& registry = obs::Registry::global();
    static FaultMetrics metrics{
        registry.counter("fault.forward_dropped"),
        registry.counter("fault.reply_dropped"),
        registry.counter("fault.probe_lost"),
        registry.counter("fault.crashed_rx"),
        registry.counter("fault.partition_severed"),
        registry.counter("fault.duplicated"),
        registry.counter("fault.delay_stamps"),
        registry.counter("fault.schedule_events"),
    };
    return metrics;
  }
};

}  // namespace

std::string to_string(PeerState state) {
  switch (state) {
    case PeerState::healthy: return "healthy";
    case PeerState::crashed: return "crashed";
    case PeerState::slow: return "slow";
    case PeerState::free_riding: return "free-riding";
  }
  return "healthy";
}

PeerState peer_state_from(const std::string& word) {
  if (word == "healthy") return PeerState::healthy;
  if (word == "crashed") return PeerState::crashed;
  if (word == "slow") return PeerState::slow;
  if (word == "free-riding") return PeerState::free_riding;
  throw std::runtime_error("fault: unknown peer state '" + word + "'");
}

void FaultSchedule::add(const FaultEvent& event) {
  // Stable insertion keeps same-stamp events in scripting order.
  const auto pos = std::upper_bound(
      events_.begin(), events_.end(), event,
      [](const FaultEvent& a, const FaultEvent& b) { return a.at < b.at; });
  events_.insert(pos, event);
}

FaultInjector::FaultInjector(FaultPlan plan, FaultSchedule schedule,
                             std::uint64_t fault_seed, std::size_t nodes)
    : plan_(std::move(plan)),
      plain_plan_(plan_.links.empty() && plan_.duplicate == 0.0 &&
                  plan_.max_delay == 0),
      forward_dropped_(&FaultMetrics::get().forward_dropped),
      events_(schedule.events()),
      states_(nodes, PeerState::healthy),
      rng_([fault_seed] {
        // Split the fault seed away from the topology/workload stream so the
        // same 64-bit value can seed both without correlation.
        std::uint64_t s = fault_seed ^ 0xfa017eedULL;
        return util::splitmix64(s);
      }()) {
  for (const FaultPlan::PeerOverride& peer : plan_.peers) {
    if (peer.node < states_.size()) states_[peer.node] = peer.state;
  }
}

void FaultInjector::apply(const FaultEvent& event) {
  switch (event.kind) {
    case FaultEvent::Kind::crash:
      set_state(event.node, PeerState::crashed);
      break;
    case FaultEvent::Kind::heal:
      set_state(event.node, PeerState::healthy);
      break;
    case FaultEvent::Kind::set_state:
      set_state(event.node, event.state);
      break;
    case FaultEvent::Kind::partition:
      partition(event.pivot);
      break;
    case FaultEvent::Kind::heal_partition:
      heal_partition();
      break;
  }
  ++events_applied_;
  FaultMetrics::get().schedule_events.add(1);
}

void FaultInjector::begin_search(std::uint64_t clock) {
  clock_ = clock;
  while (next_event_ < events_.size() && events_[next_event_].at <= clock) {
    apply(events_[next_event_++]);
  }
}

void FaultInjector::set_state(NodeId node, PeerState state) {
  if (node < states_.size()) states_[node] = state;
}

void FaultInjector::partition(NodeId pivot) {
  partitioned_ = true;
  pivot_ = pivot;
}

void FaultInjector::heal_partition() { partitioned_ = false; }

void FaultInjector::on_peer_replaced(NodeId node) {
  set_state(node, PeerState::healthy);
}

double FaultInjector::link_drop(NodeId from, NodeId to) const {
  for (const FaultPlan::LinkDrop& link : plan_.links) {
    if ((link.a == from && link.b == to) || (link.a == to && link.b == from)) {
      return link.drop;
    }
  }
  return plan_.drop;
}

ForwardVerdict FaultInjector::forward_verdict(NodeId from, NodeId to) {
  ForwardVerdict verdict;
  if (severed(from, to)) {
    verdict.dropped = true;
    FaultMetrics::get().partition_severed.add(1);
    return verdict;
  }
  if (crashed(to)) {
    verdict.dropped = true;
    FaultMetrics::get().crashed_rx.add(1);
    return verdict;
  }
  const double p = link_drop(from, to);
  if (p > 0.0 && rng_.chance(p)) {
    verdict.dropped = true;
    FaultMetrics::get().forward_dropped.add(1);
    return verdict;
  }
  if (plan_.duplicate > 0.0 && rng_.chance(plan_.duplicate)) {
    verdict.duplicated = true;
    FaultMetrics::get().duplicated.add(1);
  }
  if (plan_.max_delay > 0) {
    verdict.delay = static_cast<std::uint32_t>(
        rng_.below(std::uint64_t{plan_.max_delay} + 1));
  }
  if (state(from) == PeerState::slow || state(to) == PeerState::slow) {
    verdict.delay += plan_.slow_extra;
  }
  if (verdict.delay > 0) FaultMetrics::get().delay_stamps.add(verdict.delay);
  return verdict;
}

bool FaultInjector::reply_lost(NodeId from, NodeId to) {
  if (severed(from, to)) {
    FaultMetrics::get().partition_severed.add(1);
    return true;
  }
  const double p = link_drop(from, to);
  if (p > 0.0 && rng_.chance(p)) {
    FaultMetrics::get().reply_dropped.add(1);
    return true;
  }
  return false;
}

bool FaultInjector::probe_lost(NodeId from, NodeId to) {
  if (severed(from, to) || !shares_content(to)) {
    FaultMetrics::get().probe_lost.add(1);
    return true;
  }
  const double p = link_drop(from, to);
  if (p > 0.0 && rng_.chance(p)) {
    FaultMetrics::get().probe_lost.add(1);
    return true;
  }
  return false;
}

}  // namespace aar::fault
