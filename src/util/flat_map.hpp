#pragma once
// Open-addressing hash map for the hot counting paths: the miner's
// antecedent/consequent counts (32-bit host keys) and the streaming
// strategies' pair counts (64-bit (source << 32 | replier) keys).
//
// libstdc++'s unordered_map allocates a node per entry and chases a pointer
// on every lookup.  This map keeps key/value pairs inline in one
// power-of-two slot array with linear probing and tombstone deletion, and
// clear() keeps that array, so a table refilled block after block stops
// touching the allocator once it has reached its working size.  The
// BM_MinerRefresh and BM_*Block bands in bench_p1_micro measure the win.
//
// Deliberately minimal: unsigned integer keys, default-constructible mapped
// values, for_each/retain instead of iterators, references invalidated by
// any insert.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

namespace aar::util {

template <typename Key, typename Value>
class FlatCountMap {
  static_assert(std::is_unsigned_v<Key> && sizeof(Key) <= sizeof(std::uint64_t),
                "FlatCountMap keys are unsigned integers of at most 64 bits");

 public:
  /// Value for `key`, default-constructed on first sight.  The reference is
  /// invalidated by the next find_or_insert (the table may rehash).
  Value& find_or_insert(Key key) {
    if ((occupied_ + 1) * 4 > capacity() * 3) rehash();
    const std::size_t mask = capacity() - 1;
    std::size_t index = spread(key) & mask;
    std::size_t tombstone = kNone;
    for (;; index = (index + 1) & mask) {
      Slot& slot = slots_[index];
      if (slot.state == kFull) {
        if (slot.key == key) return slot.value;
        continue;
      }
      if (slot.state == kTombstone) {
        if (tombstone == kNone) tombstone = index;
        continue;
      }
      break;  // empty — key is absent
    }
    Slot& slot = slots_[tombstone != kNone ? tombstone : index];
    if (slot.state == kEmpty) ++occupied_;  // reused tombstones stay counted
    slot.key = key;
    slot.state = kFull;
    slot.value = Value{};
    ++size_;
    return slot.value;
  }

  [[nodiscard]] Value* find(Key key) noexcept {
    if (size_ == 0) return nullptr;
    const std::size_t mask = capacity() - 1;
    for (std::size_t index = spread(key) & mask;;
         index = (index + 1) & mask) {
      Slot& slot = slots_[index];
      if (slot.state == kEmpty) return nullptr;
      if (slot.state == kFull && slot.key == key) return &slot.value;
    }
  }
  [[nodiscard]] const Value* find(Key key) const noexcept {
    return const_cast<FlatCountMap*>(this)->find(key);
  }

  /// Remove `key` if present; returns whether it was.
  bool erase(Key key) noexcept {
    if (size_ == 0) return false;
    const std::size_t mask = capacity() - 1;
    for (std::size_t index = spread(key) & mask;;
         index = (index + 1) & mask) {
      Slot& slot = slots_[index];
      if (slot.state == kEmpty) return false;
      if (slot.state == kFull && slot.key == key) {
        drop(slot);
        return true;
      }
    }
  }

  /// Visit every entry once, in slot order, and erase those for which
  /// `keep(key, value)` returns false.  `keep` may modify the value first
  /// (scale each count, then drop the ones that fell below a floor, in one
  /// pass).
  template <typename Keep>
  void retain(Keep&& keep) {
    for (Slot& slot : slots_) {
      if (slot.state == kFull && !keep(slot.key, slot.value)) drop(slot);
    }
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  /// Slots allocated (zero or a power of two); never shrinks.
  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }

  /// Erase every entry but keep the slot array for reuse.
  void clear() noexcept {
    for (Slot& slot : slots_) {
      if (slot.state == kFull) slot.value = Value{};  // release owned memory
      slot.state = kEmpty;
    }
    size_ = 0;
    occupied_ = 0;
  }

  /// Visit every (key, value) pair, in slot order.
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (Slot& slot : slots_) {
      if (slot.state == kFull) fn(slot.key, slot.value);
    }
  }
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& slot : slots_) {
      if (slot.state == kFull) fn(slot.key, slot.value);
    }
  }

 private:
  enum State : std::uint8_t { kEmpty = 0, kFull = 1, kTombstone = 2 };
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  struct Slot {
    Key key = 0;
    State state = kEmpty;
    Value value{};
  };

  void drop(Slot& slot) noexcept {
    slot.state = kTombstone;
    slot.value = Value{};  // release any memory the value owns
    --size_;
  }

  /// Fibonacci spread of the key into the upper bits, so the low `mask`
  /// bits of the result are well mixed even for sequential host ids.  A
  /// 64-bit key first folds its high half into its low half, so pair keys
  /// that share a replier (equal low words) still spread apart.
  static std::size_t spread(Key key) noexcept {
    auto x = static_cast<std::uint64_t>(key);
    if constexpr (sizeof(Key) > sizeof(std::uint32_t)) x ^= x >> 32;
    return static_cast<std::size_t>((x * 0x9E3779B97F4A7C15ull) >> 32);
  }

  /// Re-seat every live entry.  Doubles when the live load justifies it,
  /// otherwise rebuilds at the same capacity to shed tombstones.
  void rehash() {
    const std::size_t grown =
        (size_ + 1) * 2 > capacity() ? capacity() * 2 : capacity();
    std::vector<Slot> fresh(std::max<std::size_t>(16, grown));
    const std::size_t mask = fresh.size() - 1;
    for (Slot& slot : slots_) {
      if (slot.state != kFull) continue;
      std::size_t index = spread(slot.key) & mask;
      while (fresh[index].state == kFull) index = (index + 1) & mask;
      fresh[index].key = slot.key;
      fresh[index].state = kFull;
      fresh[index].value = std::move(slot.value);
    }
    slots_ = std::move(fresh);
    occupied_ = size_;
  }

  std::vector<Slot> slots_;   // capacity always zero or a power of two
  std::size_t size_ = 0;      // full slots
  std::size_t occupied_ = 0;  // full + tombstone slots (probe-chain load)
};

}  // namespace aar::util
