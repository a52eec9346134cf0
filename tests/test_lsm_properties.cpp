// aar::lsm property battery (docs/STORAGE.md): the differential suite that
// makes the tiered store trustworthy.
//
//   * 500-trial random differential — every trial drives a Store and a
//     shadow std::map through the same randomized insert/flush/compact
//     schedule and requires byte-identical canonical dumps after every
//     maintenance step.  Counts merge by addition, so the shadow is just
//     per-key sums with exact zeros dropped.
//   * Block slicing invariance — BlockScanner must decode the same entries
//     from ANY chunking of the same byte stream (the codec-suite property
//     applied to lsm frames).
//   * Bloom filter — zero false negatives ever; false-positive rate inside
//     the banded expectation for 10 bits/key.
//   * Antecedent reads at the host-id bounds — get_antecedent over the
//     memtable and runs for ids 0 and 0xffffffff.
//   * Concurrent writers and a reader — inline flush and compaction under
//     contention, the way aar_node drives its archive (the TSan target;
//     see .github/workflows/ci.yml).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "lsm/bloom.hpp"
#include "lsm/format.hpp"
#include "lsm/store.hpp"
#include "test_tmp.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace aar::lsm {
namespace {

using aar::testing::ScopedTempDir;

// --- shadow model ---------------------------------------------------------

/// The reference semantics: per-key signed sums, exact zeros invisible.
class ShadowMap {
 public:
  void add(HostId antecedent, HostId consequent, std::int64_t delta) {
    map_[make_key(antecedent, consequent)] += delta;
  }

  /// Canonical dump in Store::dump_text() format (nonzero sums only).
  [[nodiscard]] std::string dump_text() const {
    std::string out;
    for (const auto& [key, count] : map_) {
      if (count == 0) continue;
      out += std::to_string(key_antecedent(key));
      out += ',';
      out += std::to_string(key_consequent(key));
      out += ',';
      out += std::to_string(count);
      out += '\n';
    }
    return out;
  }

  [[nodiscard]] std::int64_t get(HostId antecedent, HostId consequent) const {
    const auto it = map_.find(make_key(antecedent, consequent));
    return it == map_.end() ? 0 : it->second;
  }

  /// Store::get_antecedent's answer: nonzero sums, ascending consequent.
  [[nodiscard]] std::vector<std::pair<HostId, std::int64_t>> row(
      HostId antecedent) const {
    std::vector<std::pair<HostId, std::int64_t>> out;
    for (auto it = map_.lower_bound(antecedent_begin(antecedent));
         it != map_.end() && key_antecedent(it->first) == antecedent; ++it) {
      if (it->second != 0) {
        out.emplace_back(key_consequent(it->first), it->second);
      }
    }
    return out;
  }

 private:
  std::map<Key, std::int64_t> map_;
};

// --- 500-trial random differential ---------------------------------------

TEST(LsmDifferential, FiveHundredRandomTrialsMatchShadowByteForByte) {
  ScopedTempDir tmp("aar_lsm_diff");
  for (std::uint64_t trial = 0; trial < 500; ++trial) {
    util::Rng rng(0x5eed + trial);
    StoreOptions options;
    // Tiny budgets so every trial exercises flush + multi-level compaction
    // paths, not just the memtable.
    options.memtable_bytes = 1u << (8 + rng.below(4));  // 256B..2KiB
    options.block_bytes = 64u << rng.below(4);          // 64B..512B blocks
    options.level_fanout = 2 + static_cast<std::uint32_t>(rng.below(3));
    const std::string dir = tmp.path("trial_" + std::to_string(trial));
    Store store(dir, options);
    ShadowMap shadow;

    const std::uint32_t hosts = 4 + static_cast<std::uint32_t>(rng.below(28));
    const std::size_t ops = 50 + rng.below(150);
    for (std::size_t op = 0; op < ops; ++op) {
      const auto a = static_cast<HostId>(rng.below(hosts));
      const auto c = static_cast<HostId>(rng.below(hosts));
      // Mostly increments, some negative corrections (the miner's restore
      // deltas), occasionally large.
      std::int64_t delta = 1 + static_cast<std::int64_t>(rng.below(5));
      if (rng.below(4) == 0) delta = -delta;
      if (rng.below(16) == 0) delta *= 1000;
      store.add(a, c, delta);
      shadow.add(a, c, delta);
      if (rng.below(32) == 0) store.flush();
      if (rng.below(64) == 0) store.compact();
    }
    // Reads must agree in every store state: memtable-resident, after
    // flush, and after full compaction.
    ASSERT_EQ(store.dump_text(), shadow.dump_text())
        << "trial " << trial << " diverged before maintenance";
    store.maintain();
    ASSERT_EQ(store.dump_text(), shadow.dump_text())
        << "trial " << trial << " diverged after maintain()";
    for (std::uint32_t a = 0; a < hosts; ++a) {
      for (std::uint32_t c = 0; c < hosts; ++c) {
        ASSERT_EQ(store.get_count(a, c), shadow.get(a, c))
            << "trial " << trial << " key (" << a << "," << c << ")";
      }
    }
  }
}

TEST(LsmDifferential, ReopenedStoreServesTheFlushedState) {
  ScopedTempDir tmp("aar_lsm_reopen");
  ShadowMap shadow;
  util::Rng rng(99);
  {
    Store store(tmp.path("db"), {.memtable_bytes = 512});
    for (int i = 0; i < 2000; ++i) {
      const auto a = static_cast<HostId>(rng.below(50));
      const auto c = static_cast<HostId>(rng.below(50));
      store.add(a, c, 1);
      shadow.add(a, c, 1);
    }
    store.flush();  // durable boundary: everything below is on disk
  }
  Store reopened(tmp.path("db"));
  EXPECT_EQ(reopened.dump_text(), shadow.dump_text());
  EXPECT_EQ(reopened.stats().recovered_from, "MANIFEST");
}

TEST(LsmDifferential, AntecedentReadsMatchShadowAtTheHostIdBounds) {
  // The top id is trace::kNoHost, which aar_node's `archive` command
  // accepts; its key range ends at the top of the key space.
  ScopedTempDir tmp("aar_lsm_bounds");
  const HostId ids[] = {0, 1, 0xfffffffe, 0xffffffff};
  const auto read = [](const Store& store, HostId antecedent) {
    std::vector<std::pair<HostId, std::int64_t>> out;
    store.get_antecedent(antecedent, out);
    return out;
  };
  Store store(tmp.path("db"), {.memtable_bytes = 1u << 20,
                               .block_bytes = 64,
                               .level_fanout = 2});
  ShadowMap shadow;
  util::Rng rng(4242);
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 40; ++i) {
      const HostId a = ids[rng.below(4)];
      const HostId c = ids[rng.below(4)];
      const auto delta = static_cast<std::int64_t>(rng.below(7)) - 2;
      store.add(a, c, delta);
      shadow.add(a, c, delta);
    }
    // Memtable on top of the runs flushed by earlier rounds...
    for (const HostId a : ids) {
      ASSERT_EQ(read(store, a), shadow.row(a))
          << "round " << round << " antecedent " << a << " before flush";
    }
    store.maintain();
    // ...then runs alone, across levels once compaction has merged some.
    for (const HostId a : ids) {
      ASSERT_EQ(read(store, a), shadow.row(a))
          << "round " << round << " antecedent " << a << " after flush";
    }
  }
  EXPECT_GT(store.stats().compactions, 0u);
}

// --- block slicing invariance --------------------------------------------

std::vector<Entry> random_entries(util::Rng& rng, std::size_t n) {
  std::map<Key, std::int64_t> keyed;
  while (keyed.size() < n) {
    const Key key = make_key(static_cast<HostId>(rng.below(1000)),
                             static_cast<HostId>(rng.below(1000)));
    keyed[key] = static_cast<std::int64_t>(rng.below(1'000'000)) - 500'000;
  }
  std::vector<Entry> out;
  out.reserve(n);
  for (const auto& [key, count] : keyed) out.push_back({key, count});
  return out;
}

TEST(LsmBlockScanner, DecodedEntriesAreInvariantUnderSlicing) {
  util::Rng rng(31337);
  for (int round = 0; round < 50; ++round) {
    // Several blocks of varying fullness concatenated into one stream.
    const std::vector<Entry> entries = random_entries(rng, 40 + rng.below(200));
    std::string stream;
    BlockBuilder builder(1 + static_cast<std::uint32_t>(rng.below(20)));
    std::size_t per_block = 1 + rng.below(30);
    for (const Entry& entry : entries) {
      builder.add(entry.key, entry.count);
      if (builder.entries() >= per_block) {
        builder.finish(stream);
        per_block = 1 + rng.below(30);
      }
    }
    if (!builder.empty()) builder.finish(stream);

    // Whole-stream decode is the reference.
    std::vector<Entry> reference;
    std::size_t offset = 0;
    while (offset < stream.size()) {
      std::size_t consumed = 0;
      decode_block(
          reinterpret_cast<const unsigned char*>(stream.data()) + offset,
          stream.size() - offset, reference, consumed);
      offset += consumed;
    }
    ASSERT_EQ(reference, entries);

    // Any chunking through the scanner must produce the same entries.
    for (int slicing = 0; slicing < 8; ++slicing) {
      BlockScanner scanner;
      std::vector<Entry> sliced;
      std::size_t at = 0;
      while (at < stream.size()) {
        const std::size_t take =
            std::min<std::size_t>(1 + rng.below(37), stream.size() - at);
        scanner.feed(
            reinterpret_cast<const unsigned char*>(stream.data()) + at, take,
            sliced);
        at += take;
      }
      ASSERT_EQ(sliced, entries) << "slicing " << slicing;
      EXPECT_EQ(scanner.pending(), 0u);
    }
  }
}

TEST(LsmBlockScanner, TruncatedTailStaysPendingAndCorruptionThrows) {
  util::Rng rng(7);
  const std::vector<Entry> entries = random_entries(rng, 64);
  std::string stream;
  BlockBuilder builder;
  for (const Entry& entry : entries) builder.add(entry.key, entry.count);
  builder.finish(stream);

  // Truncation: entries never appear, bytes stay buffered, no throw.
  BlockScanner truncated;
  std::vector<Entry> out;
  truncated.feed(reinterpret_cast<const unsigned char*>(stream.data()),
                 stream.size() - 5, out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(truncated.pending(), stream.size() - 5);

  // A flipped payload byte must fail the CRC, not decode garbage counts.
  std::string corrupt = stream;
  corrupt[12] = static_cast<char>(corrupt[12] ^ 0x40);
  BlockScanner scanner;
  EXPECT_THROW(
      scanner.feed(reinterpret_cast<const unsigned char*>(corrupt.data()),
                   corrupt.size(), out),
      CorruptBlock);
}

TEST(LsmBlockFind, RestartOffsetsRunningBackwardsAreCorrupt) {
  // A CRC-valid frame a writer could not produce: entries out of key order
  // (10, 30, 20) and restarts ordered by key, so the restart array runs
  // backwards.  The lookup for 25 lands between restart 1 (key 20, the
  // third entry) and restart 2 (key 30, an earlier offset).  It must name
  // that, not scan from the third entry on into the restart array.
  std::string payload;
  std::vector<std::uint32_t> offsets;
  for (const Key key : {Key{10}, Key{30}, Key{20}}) {
    offsets.push_back(static_cast<std::uint32_t>(payload.size()));
    util::put_varint(payload, 0);
    util::put_varint(payload, 8);
    for (int shift = 56; shift >= 0; shift -= 8) {
      payload.push_back(static_cast<char>(key >> shift));
    }
    util::put_varint(payload, util::zigzag(1));
  }
  for (const std::size_t i : {0u, 2u, 1u}) util::put_u32(payload, offsets[i]);
  util::put_u32(payload, 3);
  std::string frame;
  util::put_u32(frame, static_cast<std::uint32_t>(payload.size()));
  util::put_u32(frame, 3);
  frame += payload;
  util::put_u32(frame, util::crc32(payload.data(), payload.size()));

  const auto* data = reinterpret_cast<const unsigned char*>(frame.data());
  std::int64_t count = 0;
  EXPECT_TRUE(block_find(data, frame.size(), 10, count));
  try {
    (void)block_find(data, frame.size(), 25, count);
    ADD_FAILURE() << "block_find accepted backwards restart offsets";
  } catch (const CorruptBlock& error) {
    EXPECT_STREQ(error.what(), "lsm block: restart offsets not ascending");
  }
  std::vector<Entry> out;
  std::size_t consumed = 0;
  EXPECT_THROW(decode_block(data, frame.size(), out, consumed), CorruptBlock);
}

// --- bloom filter ---------------------------------------------------------

TEST(LsmBloom, NoFalseNegativesAndBandedFalsePositiveRate) {
  util::Rng rng(404);
  const std::size_t n = 10'000;
  std::vector<HostId> members;
  members.reserve(n);
  Bloom bloom(n, 10);
  for (std::size_t i = 0; i < n; ++i) {
    const auto key = static_cast<HostId>(rng());
    members.push_back(key);
    bloom.add(key);
  }
  for (const HostId key : members) {
    ASSERT_TRUE(bloom.may_contain(key));  // never a false negative
  }
  std::size_t false_positives = 0;
  const std::size_t probes = 100'000;
  for (std::size_t i = 0; i < probes; ++i) {
    // Fresh u32 draws collide with a member with probability n/2^32, a
    // vanishing inflation next to the ~1% bloom rate itself.
    if (bloom.may_contain(static_cast<HostId>(rng()))) ++false_positives;
  }
  const double rate =
      static_cast<double>(false_positives) / static_cast<double>(probes);
  // 10 bits/key with k=6 has theoretical FPR ≈ 0.8%; accept a wide band.
  EXPECT_LT(rate, 0.03) << "false positive rate " << rate;
}

TEST(LsmBloom, SerializationRoundTripsAndRejectsCorruption) {
  Bloom bloom(100, 10);
  for (HostId i = 0; i < 100; ++i) bloom.add(i * 977);
  const std::string bytes = bloom.serialize();
  const Bloom back = Bloom::deserialize(bytes);
  for (HostId i = 0; i < 100; ++i) {
    EXPECT_TRUE(back.may_contain(i * 977));
  }
  EXPECT_THROW(
      Bloom::deserialize(std::string_view(bytes).substr(0, bytes.size() / 2)),
      CorruptBlock);
}

// --- concurrent writers and a reader (the TSan target) ------------------

TEST(LsmStoreThreads, InlineFlushAndCompactionRaceWritersAndAReader) {
  // aar_node's pattern: every shard thread add()s into one store, so the
  // flush and compaction a full memtable triggers run inline, under
  // contention, while `archive` reads come in from the admin thread.
  ScopedTempDir tmp("aar_lsm_threads");
  constexpr HostId kThreads = 4;
  constexpr int kPerThread = 3000;
  // More keys per writer than a 1 KiB memtable holds, so every writer's
  // own adds keep triggering flushes (and, every few, a compaction).
  constexpr HostId kConsequents = 97;
  ShadowMap expected;
  for (HostId t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      expected.add(t, static_cast<HostId>(i) % kConsequents, 1);
    }
  }
  {
    Store store(tmp.path("db"), {.memtable_bytes = 1024});
    std::atomic<bool> writing{true};
    std::thread reader([&] {
      // Writers only add +1, so no sum a read returns may ever shrink.
      std::map<Key, std::int64_t> seen;
      std::vector<std::pair<HostId, std::int64_t>> row;
      do {
        for (HostId a = 0; a < kThreads; ++a) {
          row.clear();
          store.get_antecedent(a, row);
          for (const auto& [c, sum] : row) {
            std::int64_t& last = seen[make_key(a, c)];
            ASSERT_GE(sum, last) << "antecedent " << a << " consequent " << c;
            last = sum;
          }
        }
      } while (writing.load());
    });
    std::vector<std::thread> writers;
    for (HostId t = 0; t < kThreads; ++t) {
      writers.emplace_back([&store, t] {
        for (int i = 0; i < kPerThread; ++i) {
          store.add(t, static_cast<HostId>(i) % kConsequents, 1);
        }
      });
    }
    for (std::thread& w : writers) w.join();
    writing = false;
    reader.join();
    EXPECT_GT(store.stats().compactions, 0u);
    EXPECT_EQ(store.dump_text(), expected.dump_text());
    store.flush();  // durable boundary for the reopen below
  }
  Store reopened(tmp.path("db"));
  EXPECT_EQ(reopened.dump_text(), expected.dump_text());
}

}  // namespace
}  // namespace aar::lsm
