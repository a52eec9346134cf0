#pragma once
// Typed events for the sharded discrete-event overlay engine (aar::sim).
//
// Two event granularities coexist:
//
//   * QueryEvent — one query message in flight during a propagation pass.
//     The engine's virtual-time rounds deliver these in the canonical
//     (time, send order) order: arrival stamp first, then the order the
//     messages were sent in.
//   * SimEvent — one macro step on the search clock (a search launch or a
//     churn epoch).  The scale driver compiles a workload into a SimEvent
//     schedule and replays it; fault-schedule events stay inside
//     fault::FaultSchedule and fire off the same clock.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "overlay/graph.hpp"

namespace aar::sim {

using overlay::NodeId;

/// A query message scheduled for delivery at a virtual-time slot.  Its
/// place in the pass's total order is (slot, push order): the serial apply
/// phase pushes events in canonical order and the slot's push-order log
/// (SlotOrder) records which shard received each one.
struct QueryEvent {
  NodeId node = overlay::kNoNode;  ///< recipient
  NodeId from = overlay::kNoNode;  ///< sender (== node at the origin)
  std::uint32_t depth = 0;
  std::uint32_t ttl = 0;
};

/// What the parallel (pure per-peer) half of a round computed for one event:
/// which flags fired and where the routed targets sit in the owning shard's
/// emission buffer.  Results sit at the same index as their event in the
/// shard's slot; the serial apply phase consumes them in push order.
struct EventResult {
  static constexpr std::uint8_t kFirstVisit = 1u << 0;
  static constexpr std::uint8_t kHit = 1u << 1;       ///< answered store hit
  static constexpr std::uint8_t kDirected = 1u << 2;  ///< selection was policy-directed
  static constexpr std::uint8_t kRouted = 1u << 3;    ///< reached the route stage

  std::uint32_t emit_offset = 0;  ///< into the shard's emission buffer
  std::uint32_t emit_count = 0;
  std::uint8_t flags = 0;
};

/// A calendar of slots indexed by pass-relative arrival stamp, one vector
/// per slot.  The serial apply phase appends in canonical order, so every
/// slot is in push order by construction and is scanned without sorting or
/// locking.  Slot vectors keep their capacity across passes.
template <typename T>
class Calendar {
 public:
  /// Grow the calendar to cover stamps [0, slots).  Never shrinks.
  void ensure(std::size_t slots) {
    if (slots_.size() < slots) slots_.resize(slots);
  }

  void push(std::uint64_t slot, const T& item) {
    slots_[static_cast<std::size_t>(slot)].push_back(item);
  }

  [[nodiscard]] std::vector<T>& at(std::uint64_t slot) {
    return slots_[static_cast<std::size_t>(slot)];
  }
  [[nodiscard]] const std::vector<T>& at(std::uint64_t slot) const {
    return slots_[static_cast<std::size_t>(slot)];
  }

  [[nodiscard]] std::size_t capacity_slots() const noexcept {
    return slots_.size();
  }

 private:
  std::vector<std::vector<T>> slots_;
};

/// Per-shard event queue keyed on virtual time.
using ShardQueue = Calendar<QueryEvent>;

/// One entry of a slot's push-order log: a message that still has work to
/// apply.  `shard` names the shard that queued it, or kSettledHit for a
/// final hop settled when sent that answers at its place in the log.  A
/// settled message with nothing left to apply (a duplicate, or a settled
/// final hop that found no target) gets no entry: the slot only counts it,
/// and `settled_before` is that count as this entry was pushed.
struct OrderEntry {
  static constexpr std::uint32_t kSettledHit = 0xffffffffu;
  std::uint32_t shard = 0;
  std::uint32_t settled_before = 0;
};

/// Per-slot push-order log, in push order.  Walking it with one cursor per
/// shard replays the slot's events in canonical order.
using SlotOrder = Calendar<OrderEntry>;

/// Macro-level typed event on the search clock.
enum class SimEventKind : std::uint8_t {
  kSearch,  ///< one query drawn from the workload driver
  kChurn,   ///< replace `count` uniformly random peers
};

struct SimEvent {
  SimEventKind kind = SimEventKind::kSearch;
  std::uint64_t count = 0;  ///< churn: peers replaced (unused for searches)
};

}  // namespace aar::sim
