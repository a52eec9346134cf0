// Property and stress tests for the aar::par building blocks: ShardCounts +
// IncrementalRuleMiner::replace_window (one table swapped in, several
// merged in the order given), a strategy counting on a lent worker while
// it evaluates, and PrefetchBlockSource.  The differential end-to-end suite
// lives in test_par_differential.cpp; here each piece is checked against
// its serial ground truth in isolation (the "Par" suites run in the TSan
// CI job).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <vector>

#include "core/measures.hpp"
#include "core/ruleset.hpp"
#include "core/strategy.hpp"
#include "core/trace_simulator.hpp"
#include "mining/incremental_miner.hpp"
#include "par/pipeline.hpp"
#include "trace/block_source.hpp"
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
    auto buckets = partition(stream, shards);
    std::vector<mining::ShardCounts> counts(shards);
    std::vector<mining::ShardCounts*> handles;
    for (std::size_t s = 0; s < shards; ++s) {
      counts[s].count(buckets[s]);
      handles.push_back(&counts[s]);
    }

    mining::IncrementalRuleMiner merged({.window = 0, .min_support = 3});
    merged.replace_window(stream, handles);

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

  const std::size_t shards = 7;
  auto buckets = partition(second, shards);
  std::vector<mining::ShardCounts> counts(shards);
  std::vector<mining::ShardCounts*> handles;
  for (std::size_t s = 0; s < shards; ++s) {
    counts[s].count(buckets[s]);
    handles.push_back(&counts[s]);
  }
  merged.replace_window(second, handles);
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
  // threads 0 means hardware_concurrency and queue depth 0 clamps to 1;
  // both still replay exactly the serial result.
  const auto stream = random_stream(25, 6'000);
  core::SlidingWindow serial(2);
  const core::SimulationResult expect =
      core::run_trace_simulation(serial, stream, 1'000);
  core::SlidingWindow strategy(2);
  core::TraceSimulator simulator(strategy, 1'000);
  core::ParallelConfig config;
  config.threads = 0;
  config.queue_depth = 0;
  const core::SimulationResult got = simulator.run_parallel(stream, config);
  EXPECT_TRUE(std::ranges::equal(got.coverage.values(),
                                 expect.coverage.values()));
  EXPECT_TRUE(std::ranges::equal(got.success.values(),
                                 expect.success.values()));
  EXPECT_EQ(strategy.current_ruleset(), serial.current_ruleset());
  EXPECT_EQ(strategy.worker(), nullptr);  // detached after the replay
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

// ----------------------------------------------------------- pipeline

TEST(ParPrefetch, YieldsExactlyTheInnerBlockSequence) {
  const auto stream = random_stream(31, 5'000);
  constexpr std::size_t kBlock = 700;
  for (const std::size_t depth : {1u, 2u, 5u}) {
    trace::SpanBlockSource inner(stream);
    PrefetchBlockSource prefetch(inner, kBlock, depth);
    trace::SpanBlockSource expect(stream);
    while (true) {
      const auto want = expect.next_block(kBlock);
      const auto got = prefetch.next_block(kBlock);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(got[i], want[i]);
      }
      if (want.empty()) break;
    }
    // Exhausted sources stay exhausted.
    EXPECT_TRUE(prefetch.next_block(kBlock).empty());
  }
}

TEST(ParPrefetch, MismatchedBlockSizeThrows) {
  const auto stream = random_stream(32, 1'000);
  trace::SpanBlockSource inner(stream);
  PrefetchBlockSource prefetch(inner, 100);
  EXPECT_THROW((void)prefetch.next_block(200), std::invalid_argument);
}

TEST(ParPrefetch, ZeroBlockSizeThrows) {
  const auto stream = random_stream(33, 100);
  trace::SpanBlockSource inner(stream);
  EXPECT_THROW(PrefetchBlockSource(inner, 0), std::invalid_argument);
}

namespace {
/// Inner source that fails after a few good blocks.
class ThrowingSource final : public trace::BlockSource {
 public:
  explicit ThrowingSource(std::span<const QueryReplyPair> pairs)
      : inner_(pairs) {}
  [[nodiscard]] std::span<const QueryReplyPair> next_block(
      std::size_t block_size) override {
    if (++calls_ > 2) throw std::runtime_error("decode failed");
    return inner_.next_block(block_size);
  }

 private:
  trace::SpanBlockSource inner_;
  int calls_ = 0;
};
}  // namespace

TEST(ParPrefetch, ProducerErrorSurfacesToConsumer) {
  const auto stream = random_stream(34, 2'000);
  ThrowingSource inner(stream);
  PrefetchBlockSource prefetch(inner, 500, 1);
  EXPECT_FALSE(prefetch.next_block(500).empty());
  EXPECT_FALSE(prefetch.next_block(500).empty());
  EXPECT_THROW((void)prefetch.next_block(500), std::runtime_error);
}

TEST(ParPrefetch, DestructionWithUndrainedQueueDoesNotHang) {
  const auto stream = random_stream(35, 10'000);
  trace::SpanBlockSource inner(stream);
  {
    PrefetchBlockSource prefetch(inner, 500, 3);
    (void)prefetch.next_block(500);  // producer is mid-stream with a full queue
  }
  SUCCEED();  // destructor unwound the stalled producer
}

}  // namespace
}  // namespace aar::par
