#include "trace/generator.hpp"

#include <gtest/gtest.h>

#include <set>
#include <unordered_map>
#include <unordered_set>

namespace aar::trace {
namespace {

TraceConfig small_config(std::uint64_t seed = 1) {
  TraceConfig config;
  config.seed = seed;
  config.block_size = 1'000;
  config.active_hosts = 60;
  config.reply_neighbors = 12;
  return config;
}

TEST(TraceGenerator, DeterministicForSameConfig) {
  TraceGenerator a(small_config());
  TraceGenerator b(small_config());
  for (int i = 0; i < 2'000; ++i) {
    const TraceEvent ea = a.next();
    const TraceEvent eb = b.next();
    EXPECT_EQ(ea.query.guid, eb.query.guid);
    EXPECT_EQ(ea.query.source_host, eb.query.source_host);
    EXPECT_EQ(ea.reply_count, eb.reply_count);
    if (ea.reply_count > 0 && eb.reply_count > 0) {
      EXPECT_EQ(ea.replies[0].replying_neighbor, eb.replies[0].replying_neighbor);
    }
  }
}

TEST(TraceGenerator, SeedsProduceDifferentStreams) {
  TraceGenerator a(small_config(1));
  TraceGenerator b(small_config(2));
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    same += a.next().query.source_host == b.next().query.source_host ? 1 : 0;
  }
  EXPECT_LT(same, 50);
}

TEST(TraceGenerator, GeneratePairsExactCount) {
  TraceGenerator gen(small_config());
  const auto pairs = gen.generate_pairs(5'000);
  EXPECT_EQ(pairs.size(), 5'000u);
}

TEST(TraceGenerator, ReplyRateMatchesConfig) {
  auto config = small_config();
  config.reply_rate = 0.25;
  TraceGenerator gen(config);
  std::uint64_t answered = 0;
  constexpr int kQueries = 40'000;
  for (int i = 0; i < kQueries; ++i) {
    answered += gen.next().answered() ? 1u : 0u;
  }
  EXPECT_NEAR(static_cast<double>(answered) / kQueries, 0.25, 0.01);
}

TEST(TraceGenerator, TimeAdvancesOneBlockPerBlockSizePairs) {
  TraceGenerator gen(small_config());
  const auto pairs = gen.generate_pairs(3'000);  // 3 blocks of 1000
  // The last pair's timestamp should be close to 3 blocks.
  EXPECT_NEAR(pairs.back().time, 3.0, 0.3);
  // Timestamps are (weakly) increasing.
  for (std::size_t i = 1; i < pairs.size(); ++i) {
    EXPECT_GE(pairs[i].time, pairs[i - 1].time - 0.01);
  }
}

TEST(TraceGenerator, RepliesCarryQueryGuid) {
  TraceGenerator gen(small_config());
  for (int i = 0; i < 5'000; ++i) {
    const TraceEvent event = gen.next();
    for (std::uint32_t r = 0; r < event.reply_count; ++r) {
      EXPECT_EQ(event.replies[r].guid, event.query.guid);
      EXPECT_GE(event.replies[r].time, event.query.time);
    }
  }
}

TEST(TraceGenerator, ReplyNeighborsComeFromNeighborIdSpace) {
  TraceGenerator gen(small_config());
  const auto pairs = gen.generate_pairs(3'000);
  for (const auto& pair : pairs) {
    EXPECT_GE(pair.replying_neighbor, kReplyNeighborBase);
    EXPECT_LT(pair.source_host, kReplyNeighborBase);
  }
}

TEST(TraceGenerator, DuplicateGuidsAreInjectedAtConfiguredRate) {
  auto config = small_config();
  config.duplicate_guid_rate = 0.01;
  TraceGenerator gen(config);
  std::unordered_set<Guid> seen;
  std::uint64_t duplicates = 0;
  constexpr int kQueries = 50'000;
  for (int i = 0; i < kQueries; ++i) {
    if (!seen.insert(gen.next().query.guid).second) ++duplicates;
  }
  EXPECT_EQ(duplicates, gen.duplicate_guids_injected());
  EXPECT_NEAR(static_cast<double>(duplicates) / kQueries, 0.01, 0.003);
}

TEST(TraceGenerator, ZeroDuplicateRateYieldsUniqueGuids) {
  auto config = small_config();
  config.duplicate_guid_rate = 0.0;
  TraceGenerator gen(config);
  std::unordered_set<Guid> seen;
  for (int i = 0; i < 20'000; ++i) {
    EXPECT_TRUE(seen.insert(gen.next().query.guid).second);
  }
}

TEST(TraceGenerator, HostChurnIntroducesNewHosts) {
  TraceGenerator gen(small_config());
  std::set<HostId> early_hosts;
  std::set<HostId> late_hosts;
  auto pairs = gen.generate_pairs(1'000);
  for (const auto& p : pairs) early_hosts.insert(p.source_host);
  // Skip far ahead (~30 blocks), beyond the transient lifetime.
  (void)gen.generate_pairs(30'000);
  pairs = gen.generate_pairs(1'000);
  for (const auto& p : pairs) late_hosts.insert(p.source_host);
  std::size_t overlap = 0;
  for (HostId h : late_hosts) overlap += early_hosts.contains(h) ? 1u : 0u;
  // Some core hosts persist, but most of the population has turned over.
  EXPECT_GT(overlap, 0u);
  EXPECT_LT(overlap, late_hosts.size());
}

TEST(TraceGenerator, VolumeIsSkewedAcrossHosts) {
  TraceGenerator gen(small_config());
  const auto pairs = gen.generate_pairs(10'000);
  std::unordered_map<HostId, std::uint64_t> volume;
  for (const auto& p : pairs) ++volume[p.source_host];
  std::uint64_t max_volume = 0;
  for (const auto& [host, count] : volume) {
    max_volume = std::max(max_volume, count);
  }
  const double mean = 10'000.0 / static_cast<double>(volume.size());
  EXPECT_GT(static_cast<double>(max_volume), 3.0 * mean);
}

TEST(TraceGenerator, MultiReplyProducesSecondReplies) {
  auto config = small_config();
  config.multi_reply_rate = 0.5;
  TraceGenerator gen(config);
  std::uint64_t doubles = 0;
  std::uint64_t answered = 0;
  for (int i = 0; i < 20'000; ++i) {
    const TraceEvent event = gen.next();
    if (event.answered()) {
      ++answered;
      if (event.reply_count == 2) ++doubles;
    }
  }
  EXPECT_GT(answered, 0u);
  EXPECT_NEAR(static_cast<double>(doubles) / static_cast<double>(answered), 0.5,
              0.05);
}

TEST(TraceGenerator, CountersAreConsistent) {
  TraceGenerator gen(small_config());
  std::uint64_t queries = 0;
  std::uint64_t replies = 0;
  for (int i = 0; i < 10'000; ++i) {
    const TraceEvent event = gen.next();
    ++queries;
    replies += event.reply_count;
  }
  EXPECT_EQ(gen.queries_generated(), queries);
  EXPECT_EQ(gen.replies_generated(), replies);
}

// Paper-scale ratio check: queries-to-replies ≈ 10.51M / 3.25M.
TEST(TraceGenerator, PaperReplyRatioHoldsAtDefaults) {
  TraceConfig config;  // defaults
  config.block_size = 2'000;
  TraceGenerator gen(config);
  (void)gen.generate_pairs(20'000);
  const double ratio = static_cast<double>(gen.queries_generated()) /
                       static_cast<double>(gen.replies_generated());
  EXPECT_NEAR(ratio, 10'514'090.0 / 3'254'274.0, 0.15);
}

}  // namespace
}  // namespace aar::trace
