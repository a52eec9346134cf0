// Property and stress tests for the aar::par building blocks: ShardCounts +
// IncrementalRuleMiner::replace_window (one table, counted bucket by
// bucket of any partition, swapped in whole), a strategy counting on a
// lent worker while it evaluates, and a decode error surfacing through
// run_parallel.  The
// differential end-to-end suite lives in test_par_differential.cpp; here
// each piece is checked against its serial ground truth in isolation (the
// "Par" suites run in the TSan CI job).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/measures.hpp"
#include "core/ruleset.hpp"
#include "core/strategy.hpp"
#include "core/trace_simulator.hpp"
#include "mining/incremental_miner.hpp"
#include "store/block_source.hpp"
#include "store/format.hpp"
#include "store/reader.hpp"
#include "store/writer.hpp"
#include "test_tmp.hpp"
#include "trace/record.hpp"
#include "util/parallel.hpp"

namespace aar::par {
namespace {

using trace::QueryReplyPair;

QueryReplyPair pair(trace::Guid guid, trace::HostId source,
                    trace::HostId replier) {
  return {.time = 0.0, .guid = guid, .source_host = source,
          .replying_neighbor = replier};
}

/// Random pair stream with enough host collisions that support pruning and
/// multi-reply GUIDs both actually occur.
std::vector<QueryReplyPair> random_stream(std::uint64_t seed,
                                          std::size_t pairs) {
  std::mt19937_64 rng(seed);
  std::vector<QueryReplyPair> stream;
  stream.reserve(pairs);
  trace::Guid guid = 0;
  while (stream.size() < pairs) {
    ++guid;
    const auto source = static_cast<trace::HostId>(rng() % 40);
    // 1–3 replies per query, sometimes through distinct neighbors.
    const std::size_t replies = 1 + rng() % 3;
    for (std::size_t r = 0; r < replies && stream.size() < pairs; ++r) {
      stream.push_back(
          pair(guid, source, static_cast<trace::HostId>(100 + rng() % 12)));
    }
  }
  return stream;
}

/// Split a stream into `shards` buckets by GUID, keeping pair order.
std::vector<std::vector<QueryReplyPair>> partition(
    const std::vector<QueryReplyPair>& stream, std::size_t shards) {
  std::vector<std::vector<QueryReplyPair>> out(shards);
  for (const QueryReplyPair& p : stream) out[p.guid % shards].push_back(p);
  return out;
}

// ------------------------------------------------- replace_window merge

TEST(ParShardMerge, MergedCountsMatchSerialMinerForAnyPartition) {
  const auto stream = random_stream(17, 3'000);
  for (const std::size_t shards : {1u, 2u, 3u, 7u, 16u}) {
    mining::ShardCounts counts;
    for (const auto& bucket : partition(stream, shards)) counts.count(bucket);

    mining::IncrementalRuleMiner merged({.window = 0, .min_support = 3});
    merged.replace_window(stream, counts);

    mining::IncrementalRuleMiner serial({.window = 0, .min_support = 3});
    serial.add(stream);
    serial.evict_to(stream.size());

    EXPECT_EQ(merged.snapshot(), serial.snapshot()) << shards << " shards";
    EXPECT_EQ(merged.snapshot(), core::RuleSet::build(stream, 3));
  }
}

TEST(ParShardMerge, ReplaceWindowRetiresPreviousWindowExactly) {
  // Sliding semantics: after a window slide, merged and serial miners must
  // agree not only on the snapshot but on window and eviction accounting.
  const auto first = random_stream(5, 2'000);
  const auto second = random_stream(6, 2'500);

  mining::IncrementalRuleMiner merged({.window = 0, .min_support = 2});
  mining::IncrementalRuleMiner serial({.window = 0, .min_support = 2});
  merged.add(first);
  merged.evict_to(first.size());
  serial.add(first);
  serial.evict_to(first.size());
  ASSERT_EQ(merged.snapshot(), serial.snapshot());

  mining::ShardCounts counts;
  for (const auto& bucket : partition(second, 7)) counts.count(bucket);
  merged.replace_window(second, counts);
  serial.add(second);
  serial.evict_to(second.size());

  EXPECT_EQ(merged.window_size(), serial.window_size());
  EXPECT_EQ(merged.snapshot(), serial.snapshot());
  EXPECT_EQ(merged.snapshot(), core::RuleSet::build(second, 2));
}

TEST(ParShardMerge, ShardCountsAccumulateAndClear) {
  mining::ShardCounts counts;
  EXPECT_EQ(counts.distinct_antecedents(), 0u);
  counts.count(pair(1, 10, 100));
  counts.count(pair(2, 10, 101));
  counts.count(pair(3, 20, 100));
  EXPECT_EQ(counts.distinct_antecedents(), 2u);
  counts.clear();
  EXPECT_EQ(counts.distinct_antecedents(), 0u);
}

// ------------------------------------------- counting on a lent worker

TEST(ParExecutor, EvaluateMatchesSerialEvaluate) {
  // The test counts the block on the worker while it evaluates; the
  // measures must be those of the rule set mined from the previous block.
  const auto train = random_stream(21, 2'000);
  const auto test = random_stream(22, 2'000);
  const core::BlockMeasures serial =
      core::evaluate(core::RuleSet::build(train, 2), test);
  util::ThreadPool worker(1);
  core::SlidingWindow strategy(2);
  strategy.attach_worker(&worker);
  strategy.bootstrap(train);
  const core::BlockMeasures overlapped = strategy.test_block(test);
  EXPECT_EQ(overlapped.total_queries, serial.total_queries);
  EXPECT_EQ(overlapped.covered, serial.covered);
  EXPECT_EQ(overlapped.successful, serial.successful);
}

TEST(ParExecutor, MineMatchesSerialAddEvict) {
  const auto first = random_stream(23, 2'500);
  const auto block = random_stream(24, 1'800);
  util::ThreadPool worker(1);
  core::SlidingWindow strategy(3);
  strategy.attach_worker(&worker);
  strategy.bootstrap(first);
  (void)strategy.test_block(block);
  mining::IncrementalRuleMiner serial({.window = 0, .min_support = 3});
  serial.add(first);
  serial.add(block);
  serial.evict_to(block.size());
  EXPECT_EQ(strategy.current_ruleset(), serial.snapshot());
}

TEST(ParExecutor, ClampsDegenerateConfiguration) {
  // threads 0 means hardware_concurrency, and still replays exactly the
  // serial result.
  const auto stream = random_stream(25, 6'000);
  core::SlidingWindow serial(2);
  const core::SimulationResult expect =
      core::run_trace_simulation(serial, stream, 1'000);
  core::SlidingWindow strategy(2);
  core::TraceSimulator simulator(strategy, 1'000);
  core::ParallelConfig config;
  config.threads = 0;
  const core::SimulationResult got = simulator.run_parallel(stream, config);
  EXPECT_TRUE(std::ranges::equal(got.coverage.values(),
                                 expect.coverage.values()));
  EXPECT_TRUE(std::ranges::equal(got.success.values(),
                                 expect.success.values()));
  EXPECT_EQ(strategy.current_ruleset(), serial.current_ruleset());
  EXPECT_EQ(strategy.worker(), nullptr);  // detached after the replay
}

TEST(ParExecutor, DecodeErrorSurfacesAndDetachesWorker) {
  // The last chunk's CRC is corrupt, so the decode error arrives mid-replay,
  // after the bootstrap and two tested blocks counted on the worker.
  const aar::testing::ScopedTempDir dir;
  const std::string path = dir.path("corrupt.aartr");
  constexpr std::uint32_t kChunk = 500;
  constexpr std::size_t kChunks = 4;
  store::write_pairs_file(path, random_stream(34, kChunks * kChunk), kChunk);
  {
    // The last chunk's u32 CRC ends where the footer (u32 chunk count plus
    // 12 B per chunk) and the trailer begin (docs/FORMAT.md).
    const auto crc_byte = static_cast<std::streamoff>(
        std::filesystem::file_size(path) - store::kTrailerSize -
        (4 + 12 * kChunks) - 1);
    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
    char byte = 0;
    file.seekg(crc_byte);
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5a);
    file.seekp(crc_byte);
    file.write(&byte, 1);
  }
  const store::Reader reader(path);
  store::StoreBlockSource source(reader);
  core::SlidingWindow strategy(2);
  core::TraceSimulator simulator(strategy, kChunk);
  core::ParallelConfig config;
  config.threads = 2;
  try {
    (void)simulator.run_parallel(source, config);
    ADD_FAILURE() << "replay of a corrupt chunk did not throw";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("chunk 3 CRC mismatch"),
              std::string::npos)
        << error.what();
  }
  EXPECT_EQ(strategy.worker(), nullptr);  // detached although the replay threw
}

TEST(ParExecutor, ThreadPoolSaturationStress) {
  // Many consecutive blocks through the three block-mined strategies that
  // count, sharing one worker: every block's measures and every rule set
  // must match the serial twin's (and run clean under TSan).
  util::ThreadPool worker(1);
  core::SlidingWindow sliding(2);
  core::LazySlidingWindow lazy(2, 3);
  core::AdaptiveSlidingWindow adaptive(2, 4);
  core::SlidingWindow sliding_serial(2);
  core::LazySlidingWindow lazy_serial(2, 3);
  core::AdaptiveSlidingWindow adaptive_serial(2, 4);
  core::Strategy* const overlapped[] = {&sliding, &lazy, &adaptive};
  core::Strategy* const serial[] = {&sliding_serial, &lazy_serial,
                                    &adaptive_serial};
  const auto first = random_stream(99, 1'200);
  for (std::size_t s = 0; s < 3; ++s) {
    overlapped[s]->attach_worker(&worker);
    overlapped[s]->bootstrap(first);
    serial[s]->bootstrap(first);
  }
  for (std::uint64_t round = 0; round < 25; ++round) {
    const auto block = random_stream(100 + round, 1'200);
    for (std::size_t s = 0; s < 3; ++s) {
      const core::BlockMeasures got = overlapped[s]->test_block(block);
      const core::BlockMeasures want = serial[s]->test_block(block);
      ASSERT_EQ(got.total_queries, want.total_queries) << round << '/' << s;
      ASSERT_EQ(got.covered, want.covered) << round << '/' << s;
      ASSERT_EQ(got.successful, want.successful) << round << '/' << s;
      ASSERT_EQ(overlapped[s]->current_ruleset(), serial[s]->current_ruleset())
          << round << '/' << s;
      ASSERT_EQ(overlapped[s]->rulesets_generated(),
                serial[s]->rulesets_generated())
          << round << '/' << s;
    }
  }
  for (core::Strategy* strategy : overlapped) strategy->attach_worker(nullptr);
}

}  // namespace
}  // namespace aar::par
