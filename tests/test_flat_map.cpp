// Property tests for util::FlatCountMap: random operation schedules checked
// against std::unordered_map, 64-bit keys that collide in their low word,
// and tombstone-heavy churn that must rehash in place instead of growing.

#include "util/flat_map.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "util/rng.hpp"

namespace aar::util {
namespace {

template <typename Key>
using Reference = std::unordered_map<Key, std::uint64_t>;

/// Every entry of `map` is in `reference` with the same value, and the
/// sizes agree, so the two hold exactly the same entries.
template <typename Key>
void expect_same(const FlatCountMap<Key, std::uint64_t>& map,
                 const Reference<Key>& reference) {
  ASSERT_EQ(map.size(), reference.size());
  std::size_t visited = 0;
  map.for_each([&](Key key, std::uint64_t value) {
    ++visited;
    const auto it = reference.find(key);
    ASSERT_NE(it, reference.end()) << key;
    EXPECT_EQ(value, it->second) << key;
  });
  EXPECT_EQ(visited, reference.size());
}

/// One random schedule of insert/find/erase/retain/clear over a small key
/// universe (so erased keys come back and probes cross tombstones).
template <typename Key>
void run_schedule(std::uint64_t seed, Key (*make_key)(std::uint64_t)) {
  Rng rng(seed);
  FlatCountMap<Key, std::uint64_t> map;
  Reference<Key> reference;
  const std::uint64_t universe = 8 + rng.below(400);
  const std::size_t ops = 200 + rng.below(1'500);
  for (std::size_t op = 0; op < ops; ++op) {
    const Key key = make_key(rng.below(universe));
    const std::uint64_t roll = rng.below(100);
    if (roll < 45) {
      const std::uint64_t add = 1 + rng.below(9);
      map.find_or_insert(key) += add;
      reference[key] += add;
    } else if (roll < 70) {
      const std::uint64_t* found =
          static_cast<const FlatCountMap<Key, std::uint64_t>&>(map).find(key);
      const auto it = reference.find(key);
      ASSERT_EQ(found != nullptr, it != reference.end()) << "seed " << seed;
      if (found != nullptr) {
        ASSERT_EQ(*found, it->second) << "seed " << seed;
      }
    } else if (roll < 93) {
      ASSERT_EQ(map.erase(key), reference.erase(key) == 1) << "seed " << seed;
    } else if (roll < 99) {
      // Scale every value, then drop those that land on the modulus — the
      // shape of a decay sweep.
      const std::uint64_t mod = 2 + rng.below(5);
      const std::uint64_t scale = 1 + rng.below(3);
      map.retain([&](Key, std::uint64_t& value) {
        value *= scale;
        return value % mod != 0;
      });
      for (auto it = reference.begin(); it != reference.end();) {
        it->second *= scale;
        it = it->second % mod == 0 ? reference.erase(it) : std::next(it);
      }
    } else {
      map.clear();
      reference.clear();
    }
    ASSERT_EQ(map.size(), reference.size()) << "seed " << seed << " op " << op;
  }
  expect_same(map, reference);
}

TEST(FlatCountMap, RandomSchedulesMatchUnorderedMap) {
  for (std::uint64_t seed = 1; seed <= 500; ++seed) {
    if (seed % 2 == 0) {
      run_schedule<std::uint32_t>(
          seed, [](std::uint64_t i) { return static_cast<std::uint32_t>(i * 7); });
    } else {
      // Pair-shaped 64-bit keys: (source << 32) | replier.
      run_schedule<std::uint64_t>(seed, [](std::uint64_t i) {
        return ((i % 13) << 32) | (i / 13);
      });
    }
    if (HasFatalFailure()) return;
  }
}

TEST(FlatCountMap, KeysCollidingInTheLowWordStayDistinct) {
  FlatCountMap<std::uint64_t, std::uint64_t> map;
  constexpr std::uint64_t kKeys = 5'000;
  const auto key = [](std::uint64_t i) { return (i << 32) | 0x2au; };
  for (std::uint64_t i = 0; i < kKeys; ++i) map.find_or_insert(key(i)) = i + 1;
  ASSERT_EQ(map.size(), kKeys);
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    const std::uint64_t* value = map.find(key(i));
    ASSERT_NE(value, nullptr) << i;
    EXPECT_EQ(*value, i + 1);
  }
  EXPECT_EQ(map.find(key(kKeys)), nullptr);  // same low word, never inserted
  for (std::uint64_t i = 0; i < kKeys; i += 2) EXPECT_TRUE(map.erase(key(i)));
  EXPECT_EQ(map.size(), kKeys / 2);
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    EXPECT_EQ(map.find(key(i)) != nullptr, i % 2 == 1) << i;
  }
}

TEST(FlatCountMap, TombstoneChurnRehashesInPlace) {
  FlatCountMap<std::uint64_t, std::uint64_t> map;
  // A few long-lived entries plus waves of short-lived keys, each wave
  // erased before the next: the table fills with tombstones, which the
  // same-capacity rehash must shed without doubling.
  for (std::uint64_t k = 0; k < 8; ++k) map.find_or_insert(k) = k;
  std::uint64_t next = 1'000;
  for (int wave = 0; wave < 2'000; ++wave) {
    std::vector<std::uint64_t> keys;
    for (int i = 0; i < 20; ++i) keys.push_back(next++ << 20);
    for (const std::uint64_t k : keys) map.find_or_insert(k) = 1;
    for (const std::uint64_t k : keys) ASSERT_TRUE(map.erase(k));
  }
  EXPECT_EQ(map.size(), 8u);
  EXPECT_LE(map.capacity(), 64u);
  for (std::uint64_t k = 0; k < 8; ++k) {
    const std::uint64_t* value = map.find(k);
    ASSERT_NE(value, nullptr);
    EXPECT_EQ(*value, k);
  }
  EXPECT_EQ(map.find(1'000ull << 20), nullptr);
}

TEST(FlatCountMap, ClearKeepsCapacityAndRetainCanEmpty) {
  FlatCountMap<std::uint32_t, std::uint32_t> map;
  for (std::uint32_t k = 0; k < 1'000; ++k) ++map.find_or_insert(k);
  const std::size_t capacity = map.capacity();
  map.clear();
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.capacity(), capacity);
  EXPECT_EQ(map.find(3), nullptr);
  for (std::uint32_t k = 0; k < 1'000; ++k) ++map.find_or_insert(k);
  EXPECT_EQ(map.capacity(), capacity);  // refilled without reallocating
  map.retain([](std::uint32_t, std::uint32_t&) { return false; });
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.find(999), nullptr);
  EXPECT_EQ(map.find_or_insert(999), 0u);  // re-inserted fresh
}

TEST(FlatCountMap, ReserveSizesTheTableOnce) {
  FlatCountMap<std::uint64_t, std::uint32_t> map;
  for (std::uint64_t k = 0; k < 10; ++k) map.find_or_insert(k * 977) = 7;
  map.reserve(1'000);  // keeps what it holds
  const std::size_t capacity = map.capacity();
  EXPECT_GE(capacity * 3, 1'000u * 4);
  for (std::uint64_t k = 0; k < 10; ++k) {
    const std::uint32_t* value = map.find(k * 977);
    ASSERT_NE(value, nullptr);
    EXPECT_EQ(*value, 7u);
  }
  for (std::uint64_t k = 10; k < 1'000; ++k) map.find_or_insert(k * 977) = 1;
  EXPECT_EQ(map.size(), 1'000u);
  EXPECT_EQ(map.capacity(), capacity);  // no insert rehashed
  map.reserve(10);  // never shrinks
  EXPECT_EQ(map.capacity(), capacity);
}

}  // namespace
}  // namespace aar::util
