#include "trace/database.hpp"

#include <gtest/gtest.h>

namespace aar::trace {
namespace {

QueryRecord query(double time, Guid guid, HostId source) {
  return {.time = time, .guid = guid, .source_host = source, .query = 0};
}

ReplyRecord reply(double time, Guid guid, HostId neighbor) {
  return {.time = time,
          .guid = guid,
          .replying_neighbor = neighbor,
          .serving_host = 999,
          .file = 0};
}

TEST(Database, DedupKeepsFirstUse) {
  Database db;
  db.add_query(query(1.0, 42, 10));
  db.add_query(query(2.0, 42, 20));  // duplicate GUID, different host
  db.add_query(query(3.0, 43, 30));
  EXPECT_EQ(db.deduplicate_queries(), 1u);
  ASSERT_EQ(db.queries().size(), 2u);
  EXPECT_EQ(db.queries()[0].source_host, 10u);  // first use kept
  EXPECT_EQ(db.queries()[1].guid, 43u);
}

TEST(Database, DedupIsIdempotent) {
  Database db;
  db.add_query(query(1.0, 1, 1));
  db.add_query(query(2.0, 1, 2));
  EXPECT_EQ(db.deduplicate_queries(), 1u);
  EXPECT_EQ(db.deduplicate_queries(), 0u);
  EXPECT_EQ(db.queries().size(), 1u);
}

TEST(Database, JoinMatchesOnGuid) {
  Database db;
  db.add_query(query(1.0, 100, 7));
  db.add_query(query(2.0, 200, 8));
  db.add_reply(reply(2.5, 100, 55));
  db.add_reply(reply(3.0, 200, 66));
  db.add_reply(reply(3.5, 100, 77));  // second reply to the same query
  EXPECT_EQ(db.join(), 3u);
  ASSERT_EQ(db.pairs().size(), 3u);
  // Every pair inherits the query's source host.
  for (const auto& pair : db.pairs()) {
    if (pair.guid == 100) {
      EXPECT_EQ(pair.source_host, 7u);
    }
    if (pair.guid == 200) {
      EXPECT_EQ(pair.source_host, 8u);
    }
  }
}

TEST(Database, JoinDropsOrphanReplies) {
  Database db;
  db.add_query(query(1.0, 1, 1));
  db.add_reply(reply(2.0, 1, 10));
  db.add_reply(reply(2.0, 999, 11));  // no matching query
  EXPECT_EQ(db.join(), 1u);
  EXPECT_EQ(db.summary().orphan_replies, 1u);
}

TEST(Database, JoinSortsPairsByTime) {
  Database db;
  db.add_query(query(1.0, 1, 1));
  db.add_query(query(1.1, 2, 2));
  db.add_reply(reply(9.0, 1, 10));  // late reply to the early query
  db.add_reply(reply(2.0, 2, 11));
  db.join();
  ASSERT_EQ(db.pairs().size(), 2u);
  EXPECT_LE(db.pairs()[0].time, db.pairs()[1].time);
  EXPECT_EQ(db.pairs()[0].guid, 2u);
}

TEST(Database, JoinRunsDedupFirst) {
  Database db;
  db.add_query(query(1.0, 5, 1));
  db.add_query(query(2.0, 5, 2));  // duplicate; its replies bind to host 1
  db.add_reply(reply(3.0, 5, 10));
  db.join();
  ASSERT_EQ(db.pairs().size(), 1u);
  EXPECT_EQ(db.pairs()[0].source_host, 1u);
  EXPECT_EQ(db.summary().duplicate_guids, 1u);
}

TEST(Database, BlocksPartitionThePairTable) {
  Database db;
  for (Guid g = 0; g < 25; ++g) {
    db.add_query(query(static_cast<double>(g), g + 1, 1));
    db.add_reply(reply(static_cast<double>(g) + 0.5, g + 1, 10));
  }
  db.join();
  EXPECT_EQ(db.num_blocks(10), 2u);  // 25 pairs -> 2 whole blocks of 10
  const auto block0 = db.block(0, 10);
  const auto block1 = db.block(1, 10);
  EXPECT_EQ(block0.size(), 10u);
  EXPECT_EQ(block1.size(), 10u);
  EXPECT_EQ(block1[0].guid, block0[9].guid + 1);  // contiguous, ordered
}

TEST(Database, SummaryCountsEverything) {
  Database db;
  db.add_query(query(1.0, 1, 100));
  db.add_query(query(2.0, 1, 101));  // dup
  db.add_query(query(3.0, 2, 100));
  db.add_reply(reply(4.0, 1, 200));
  db.add_reply(reply(5.0, 2, 201));
  db.join();
  const TraceSummary s = db.summary();
  EXPECT_EQ(s.raw_queries, 3u);
  EXPECT_EQ(s.duplicate_guids, 1u);
  EXPECT_EQ(s.queries, 2u);
  EXPECT_EQ(s.replies, 2u);
  EXPECT_EQ(s.pairs, 2u);
  EXPECT_EQ(s.unique_source_hosts, 1u);  // only host 100 survives dedup
  EXPECT_EQ(s.unique_reply_neighbors, 2u);
  EXPECT_NE(s.to_string().find("pairs=2"), std::string::npos);
}

TEST(Database, ImportFromGeneratorProducesJoinablePairs) {
  TraceConfig config;
  config.block_size = 500;
  config.active_hosts = 40;
  config.reply_neighbors = 8;
  TraceGenerator gen(config);
  Database db;
  db.import(gen, 2'000);
  const std::uint64_t pairs = db.join();
  EXPECT_GE(pairs, 2'000u);
  const TraceSummary s = db.summary();
  EXPECT_EQ(s.replies, gen.replies_generated());
  EXPECT_EQ(s.raw_queries, gen.queries_generated());
  // All generated replies answer recorded queries; only replies to queries
  // dropped by dedup can orphan.
  EXPECT_LE(s.orphan_replies, s.duplicate_guids);
  EXPECT_EQ(s.pairs + s.orphan_replies, s.replies);
}

TEST(Database, DedupMatchesGeneratorInjectionCount) {
  TraceConfig config;
  config.block_size = 500;
  config.duplicate_guid_rate = 0.01;
  TraceGenerator gen(config);
  Database db;
  db.import(gen, 3'000);
  db.deduplicate_queries();
  EXPECT_EQ(db.summary().duplicate_guids, gen.duplicate_guids_injected());
}

TEST(Database, AddingAfterJoinInvalidatesAndRejoins) {
  Database db;
  db.add_query(query(1.0, 1, 1));
  db.add_reply(reply(1.5, 1, 10));
  EXPECT_EQ(db.join(), 1u);
  db.add_query(query(2.0, 2, 2));
  db.add_reply(reply(2.5, 2, 11));
  EXPECT_EQ(db.join(), 2u);
}

}  // namespace
}  // namespace aar::trace
