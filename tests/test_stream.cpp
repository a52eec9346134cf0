// Lossy Counting (Manku & Motwani) and the StreamingRuleset strategy that
// realizes the paper's Section VI data-stream pointer with bounded memory.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "assoc/stream.hpp"
#include "core/strategy.hpp"
#include "core/trace_simulator.hpp"
#include "trace/generator.hpp"
#include "util/rng.hpp"

namespace aar {
namespace {

// --- LossyCounter ---------------------------------------------------------------

TEST(LossyCounter, ExactForShortStreams) {
  assoc::LossyCounter counter(0.01);  // bucket width 100
  for (int i = 0; i < 50; ++i) counter.add(7);
  for (int i = 0; i < 30; ++i) counter.add(9);
  EXPECT_EQ(counter.count(7), 50u);
  EXPECT_EQ(counter.count(9), 30u);
  EXPECT_EQ(counter.count(1), 0u);
  EXPECT_EQ(counter.items_processed(), 80u);
}

TEST(LossyCounter, NeverOvercountsAndUndercountsWithinEpsilonN) {
  constexpr double kEpsilon = 0.005;
  assoc::LossyCounter counter(kEpsilon);
  std::map<std::uint64_t, std::uint64_t> truth;
  util::Rng rng(3);
  // Zipf-ish stream over 200 keys.
  util::ZipfSampler zipf(200, 1.0);
  constexpr int kItems = 50'000;
  for (int i = 0; i < kItems; ++i) {
    const std::uint64_t key = zipf(rng);
    ++truth[key];
    counter.add(key);
  }
  const double max_undercount = kEpsilon * kItems;
  for (const auto& [key, true_count] : truth) {
    const std::uint64_t estimate = counter.count(key);
    EXPECT_LE(estimate, true_count);  // estimates never exceed truth
    if (static_cast<double>(true_count) > max_undercount) {
      // Guarantee: undercount bounded by εN (and the item is present).
      EXPECT_GE(static_cast<double>(estimate),
                static_cast<double>(true_count) - max_undercount);
      EXPECT_GE(counter.upper_bound(key), true_count);
    }
  }
}

TEST(LossyCounter, FrequentIsSupersetOfTrulyFrequent) {
  constexpr double kEpsilon = 0.002;
  constexpr double kSupport = 0.02;
  assoc::LossyCounter counter(kEpsilon);
  std::map<std::uint64_t, std::uint64_t> truth;
  util::Rng rng(5);
  util::ZipfSampler zipf(500, 1.1);
  constexpr int kItems = 100'000;
  for (int i = 0; i < kItems; ++i) {
    const std::uint64_t key = zipf(rng);
    ++truth[key];
    counter.add(key);
  }
  const auto reported = counter.frequent(kSupport);
  std::map<std::uint64_t, std::uint64_t> reported_map(reported.begin(),
                                                      reported.end());
  for (const auto& [key, count] : truth) {
    if (static_cast<double>(count) >= kSupport * kItems) {
      EXPECT_TRUE(reported_map.contains(key)) << "missed frequent key " << key;
    }
  }
}

TEST(LossyCounter, MemoryStaysBounded) {
  assoc::LossyCounter counter(0.01);
  util::Rng rng(7);
  // A million items over a huge key space: the table must stay near
  // O(1/ε · log εN) — far below the distinct-key count.
  for (int i = 0; i < 1'000'000; ++i) {
    counter.add(rng.below(1u << 30));  // almost all keys distinct, all rare
  }
  EXPECT_LT(counter.table_size(), 2'000u);
}

TEST(LossyCounter, ClearResets) {
  assoc::LossyCounter counter(0.1);
  counter.add(1);
  counter.add(1);
  counter.clear();
  EXPECT_EQ(counter.count(1), 0u);
  EXPECT_EQ(counter.items_processed(), 0u);
  EXPECT_EQ(counter.table_size(), 0u);
}

TEST(LossyCounter, RejectsEpsilonOutsideTheOpenUnitInterval) {
  // Checked in every build type: ε = 0 would cast an infinite bucket width
  // to an integer.
  for (const double epsilon : {0.0, 1.0, -0.1, 1.5,
                               std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(assoc::LossyCounter{epsilon}, std::invalid_argument) << epsilon;
  }
  EXPECT_NO_THROW(assoc::LossyCounter{0.5});
}

TEST(LossyCounter, AddReportsThePruneAtEachBucketEnd) {
  assoc::LossyCounter counter(0.25);  // bucket width 4
  EXPECT_FALSE(counter.add(1));
  EXPECT_FALSE(counter.add(2));
  EXPECT_FALSE(counter.add(1));
  EXPECT_TRUE(counter.add(3));  // 4th item closes bucket 1 and prunes 2, 3
  EXPECT_EQ(counter.count(1), 2u);
  EXPECT_EQ(counter.count(2), 0u);
  EXPECT_EQ(counter.table_size(), 1u);
}

TEST(LossyCounter, PreviousCountsSurviveOneRotationAndAreGoneAfterTwo) {
  assoc::LossyCounter counter(0.01);  // bucket width 100: no prune here
  for (int i = 0; i < 3; ++i) counter.add(1);
  counter.add(2);
  counter.rotate();
  EXPECT_EQ(counter.counts(1).previous, 3u);
  EXPECT_EQ(counter.count(1), 0u);  // per-epoch view: not seen this epoch
  EXPECT_EQ(counter.counts(2).total(), 1u);
  EXPECT_EQ(counter.items_processed(), 0u);
  EXPECT_EQ(counter.table_size(), 2u);

  counter.add(2);
  counter.add(3);
  EXPECT_EQ(counter.counts(2).count, 1u);
  EXPECT_EQ(counter.counts(2).previous, 1u);
  // frequent() reports this epoch's keys only, even at a threshold <= 0.
  std::map<std::uint64_t, std::uint64_t> frequent;
  for (const auto& [key, count] : counter.frequent(0.0)) frequent[key] = count;
  EXPECT_EQ(frequent, (std::map<std::uint64_t, std::uint64_t>{{2, 1}, {3, 1}}));

  std::map<std::uint64_t, std::uint64_t> kept;
  counter.rotate([&](std::uint64_t key, std::uint64_t previous) {
    kept[key] = previous;
  });
  // Key 1 had only a previous count: two rotations forget it.
  EXPECT_EQ(kept, (std::map<std::uint64_t, std::uint64_t>{{2, 1}, {3, 1}}));
  EXPECT_EQ(counter.counts(1).total(), 0u);
  EXPECT_EQ(counter.table_size(), 2u);
  counter.rotate();
  EXPECT_EQ(counter.table_size(), 0u);
}

TEST(LossyCounter, PruneReportsExactlyTheRemovedEntries) {
  assoc::LossyCounter counter(0.25);  // bucket width 4
  std::map<std::uint64_t, assoc::LossyCounter::Counts> reported;
  auto record = [&](std::uint64_t key, assoc::LossyCounter::Counts counts) {
    EXPECT_TRUE(reported.emplace(key, counts).second) << "reported twice: " << key;
  };
  for (const std::uint64_t key : {1u, 2u, 1u}) {
    EXPECT_FALSE(counter.add(key, record).pruned);
  }
  EXPECT_TRUE(reported.empty());
  // The 4th item closes bucket 1: keys 2 and 3 (count 1, no undercount)
  // are removed, key 1 (count 2) stays.  Key 3 is counted and removed by
  // the same add.
  const assoc::LossyCounter::Added fresh = counter.add(3, record);
  EXPECT_TRUE(fresh.pruned);
  EXPECT_EQ(fresh.before, 0u);
  EXPECT_EQ(fresh.after, 0u);
  ASSERT_EQ(reported.size(), 2u);
  EXPECT_EQ(reported.at(2).count, 1u);
  EXPECT_EQ(reported.at(3).count, 1u);
  EXPECT_EQ(reported.at(3).previous, 0u);
  EXPECT_EQ(counter.table_size(), 1u);

  // A removed entry with a previous-epoch count stays held at count 0.
  counter.rotate();  // key 1: previous 2
  reported.clear();
  counter.add(5, record);
  counter.add(5, record);
  counter.add(6, record);
  const assoc::LossyCounter::Added kept = counter.add(1, record);
  EXPECT_TRUE(kept.pruned);
  EXPECT_EQ(kept.before, 2u);
  EXPECT_EQ(kept.after, 2u);
  ASSERT_EQ(reported.size(), 2u);
  EXPECT_EQ(reported.at(6).count, 1u);
  EXPECT_EQ(reported.at(1).count, 1u);
  EXPECT_EQ(reported.at(1).previous, 2u);
  EXPECT_EQ(counter.counts(1).count, 0u);
  EXPECT_EQ(counter.counts(1).previous, 2u);
  EXPECT_EQ(counter.count(5), 2u);
  EXPECT_EQ(counter.table_size(), 2u);  // keys 5 and 1
  // Not counted this epoch: bounded by the buckets it may have missed.
  EXPECT_EQ(counter.upper_bound(1), 1u);

  // A surviving count grows by one and reports nothing.
  reported.clear();
  const assoc::LossyCounter::Added grown = counter.add(5, record);
  EXPECT_FALSE(grown.pruned);
  EXPECT_EQ(grown.before, 2u);
  EXPECT_EQ(grown.after, 3u);
  EXPECT_TRUE(reported.empty());
}

// --- StreamingRuleset -------------------------------------------------------------

std::vector<trace::QueryReplyPair> block_of(core::HostId source,
                                            core::HostId replier, std::size_t n,
                                            trace::Guid base) {
  std::vector<trace::QueryReplyPair> pairs;
  for (std::size_t i = 0; i < n; ++i) {
    pairs.push_back({.time = 0.0,
                     .guid = base + i,
                     .source_host = source,
                     .replying_neighbor = replier});
  }
  return pairs;
}

TEST(StreamingRuleset, LearnsAndCovers) {
  core::StreamingRuleset strategy(10, 1e-3, 1'000, 3.0);
  strategy.bootstrap(block_of(1, 100, 50, 0));
  const core::BlockMeasures m = strategy.test_block(block_of(1, 100, 50, 1'000));
  EXPECT_DOUBLE_EQ(m.coverage(), 1.0);
  EXPECT_DOUBLE_EQ(m.success(), 1.0);
}

TEST(StreamingRuleset, FractionalThresholdIsComparedInDouble) {
  // Threshold 2.5: a pair seen twice must not be a rule yet (truncating the
  // threshold to an integer activated it at count 2).
  core::StreamingRuleset strategy(1, 1e-3, 10'000, 2.5);
  strategy.bootstrap(block_of(1, 100, 2, 0));
  const core::BlockMeasures twice = strategy.test_block(block_of(1, 100, 1, 1'000));
  EXPECT_EQ(twice.total_queries, 1u);
  EXPECT_EQ(twice.covered, 0u);
  // That test pair trained the third sighting: now 3 >= 2.5.
  const core::BlockMeasures thrice = strategy.test_block(block_of(1, 100, 1, 2'000));
  EXPECT_EQ(thrice.covered, 1u);
  EXPECT_EQ(thrice.successful, 1u);
}

TEST(StreamingRuleset, RejectsZeroEpochAndBadEpsilon) {
  EXPECT_THROW(core::StreamingRuleset(10, 1e-3, 0), std::invalid_argument);
  EXPECT_THROW(core::StreamingRuleset(10, 0.0), std::invalid_argument);
  EXPECT_NO_THROW(core::StreamingRuleset(10, 1e-3, 1));
}

TEST(StreamingRuleset, EpochRotationForgetsTheStalePast) {
  // Epoch = 100 pairs; rules from >2 epochs ago must be gone.
  core::StreamingRuleset strategy(10, 1e-3, 100, 3.0);
  strategy.bootstrap(block_of(1, 100, 50, 0));
  strategy.test_block(block_of(2, 200, 300, 1'000));  // 3 epochs of host 2
  const core::BlockMeasures late = strategy.test_block(block_of(1, 100, 2, 9'000));
  EXPECT_DOUBLE_EQ(late.coverage(), 0.0);  // host 1 evicted by rotation
}

TEST(StreamingRuleset, MatchesIncrementalOnTheCalibratedTrace) {
  trace::TraceConfig config;
  config.seed = 11;
  config.block_size = 2'000;
  config.active_hosts = 60;
  trace::TraceGenerator generator(config);
  const auto pairs = generator.generate_pairs(30 * 2'000);

  core::StreamingRuleset streaming(10, 1e-3, 2'000, 3.0);
  core::IncrementalRuleset incremental(10);
  const auto r_streaming = core::run_trace_simulation(streaming, pairs, 2'000);
  const auto r_incremental =
      core::run_trace_simulation(incremental, pairs, 2'000);
  // Both realize the always-fresh idea; lossy counting should land within a
  // few points of the decay variant on both measures.
  EXPECT_GT(r_streaming.avg_coverage(), r_incremental.avg_coverage() - 0.07);
  EXPECT_GT(r_streaming.avg_success(), r_incremental.avg_success() - 0.07);
  EXPECT_GT(r_streaming.avg_coverage(), 0.85);
}

TEST(StreamingRuleset, TableSizeStaysSmall) {
  trace::TraceConfig config;
  config.seed = 13;
  config.block_size = 2'000;
  trace::TraceGenerator generator(config);
  const auto pairs = generator.generate_pairs(20 * 2'000);
  core::StreamingRuleset strategy(10, 1e-3, 2'000, 3.0);
  strategy.bootstrap(std::span(pairs).first(2'000));
  for (std::size_t b = 1; b < 20; ++b) {
    strategy.test_block(std::span(pairs).subspan(b * 2'000, 2'000));
  }
  // Bounded by the lossy-counting guarantee, not by the stream length.
  EXPECT_LT(strategy.table_size(), 5'000u);
}

TEST(StreamingRuleset, RejectsNonPositiveOrNonFiniteThreshold) {
  // A threshold of 0 made every unseen pair active, so train() never counted
  // a source and a bootstrapped key covered nothing until the first prune;
  // NaN never activates a rule.
  for (const double threshold : {0.0, -1.0, std::numeric_limits<double>::quiet_NaN(),
                                 std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(core::StreamingRuleset(1, 1e-3, 10'000, threshold),
                 std::invalid_argument)
        << threshold;
  }
  EXPECT_NO_THROW(core::StreamingRuleset(1, 1e-3, 10'000, 0.5));
}

TEST(IncrementalRuleset, RejectsNonPositiveOrNonFiniteThreshold) {
  // A NaN threshold never activated a rule: coverage was silently 0.
  for (const double threshold : {0.0, -2.5, std::numeric_limits<double>::quiet_NaN(),
                                 std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(core::IncrementalRuleset(10, 1e4, threshold),
                 std::invalid_argument)
        << threshold;
  }
  EXPECT_NO_THROW(core::IncrementalRuleset(10, 1e4, 0.04));
}

// --- Active-rule upkeep ------------------------------------------------------------
//
// Both prequential strategies keep each source's active-rule count and
// adjust it only where a count crosses the threshold.  Fed a drifting
// stream over a handful of hosts one pair at a time, under settings that
// prune, rotate, decay and drop often, the count must after every pair
// equal a recount over the pair counts, and the coverage and success
// answers must match the counts the pair was tested against.

constexpr core::HostId kSources = 4;
constexpr core::HostId kRepliers = 6;

/// Mostly one of three hot (source, replier) pairs that change every 500
/// pairs; 2% of pairs are uniform over all of them, so cold pairs gather
/// one or two sightings and then lapse.
class DriftingPairs {
 public:
  explicit DriftingPairs(std::uint64_t seed) : rng_(seed) {}

  trace::QueryReplyPair next() {
    if (emitted_ % 500 == 0) {
      for (auto& hot : hot_) hot = draw();
    }
    const auto [source, replier] =
        rng_.chance(0.02) ? draw() : hot_[rng_.below(hot_.size())];
    return {.time = 0.0,
            .guid = ++emitted_,
            .source_host = source,
            .replying_neighbor = replier};
  }

 private:
  std::pair<core::HostId, core::HostId> draw() {
    return {static_cast<core::HostId>(rng_.below(kSources)),
            static_cast<core::HostId>(100 + rng_.below(kRepliers))};
  }

  util::Rng rng_;
  std::uint64_t emitted_ = 0;
  std::array<std::pair<core::HostId, core::HostId>, 3> hot_{};
};

/// Test `strategy` on `pairs` single-pair blocks.  `rule_active(source,
/// replier)` reads the strategy's own counts; before each pair the coverage
/// and success answers must follow from them, and after it every source's
/// active-rule count must equal their recount.
template <typename Strategy, typename RuleActive>
void expect_upkeep_exact(Strategy& strategy, DriftingPairs& stream,
                         std::size_t pairs, RuleActive&& rule_active,
                         const std::string& label) {
  auto recount = [&](core::HostId source) {
    std::uint32_t active = 0;
    for (core::HostId r = 0; r < kRepliers; ++r) active += rule_active(source, 100 + r);
    return active;
  };
  for (std::size_t i = 0; i < pairs; ++i) {
    const trace::QueryReplyPair pair = stream.next();
    const bool covered = recount(pair.source_host) > 0;
    const bool matched = covered && rule_active(pair.source_host, pair.replying_neighbor);
    const core::BlockMeasures m = strategy.test_block(std::span(&pair, 1));
    ASSERT_EQ(m.covered, covered ? 1u : 0u) << label << " pair " << i;
    ASSERT_EQ(m.successful, matched ? 1u : 0u) << label << " pair " << i;
    for (core::HostId source = 0; source < kSources; ++source) {
      ASSERT_EQ(strategy.active_rules(source), recount(source))
          << label << " pair " << i << " source " << source;
    }
  }
}

TEST(StreamingRuleset, ActiveRuleCountsMatchARecountAfterEveryPair) {
  std::uint64_t seed = 1;
  for (const double epsilon : {0.5, 0.25, 0.1, 1e-3}) {
    for (const std::uint64_t epoch : {3u, 7u, 10u, 64u}) {
      for (const double threshold : {0.5, 1.0, 2.0, 2.5, 4.0}) {
        core::StreamingRuleset strategy(1, epsilon, epoch, threshold);
        DriftingPairs stream(seed++);
        // Recount from the counter's held entries; a key it does not hold
        // counts 0, which no positive threshold reaches.
        const auto& counter = strategy.counter();
        auto rule_active = [&](core::HostId source, core::HostId replier) {
          const std::uint64_t key = (std::uint64_t{source} << 32) | replier;
          bool held_active = false;
          counter.for_each([&](std::uint64_t held, assoc::LossyCounter::Counts counts) {
            if (held == key) {
              held_active = static_cast<double>(counts.total()) >= threshold;
            }
          });
          return held_active;
        };
        ASSERT_NO_FATAL_FAILURE(expect_upkeep_exact(
            strategy, stream, 1'500, rule_active,
            "eps " + std::to_string(epsilon) + " epoch " + std::to_string(epoch) +
                " threshold " + std::to_string(threshold)));
      }
    }
  }
}

TEST(IncrementalRuleset, ActiveRuleCountsMatchARecountAfterEveryPair) {
  std::uint64_t seed = 1'000;
  // Half-lives from "every sweep drops everything" to "counts decay over
  // several sweeps"; 0.04 sits below the 0.05 drop floor, so entries are
  // dropped while still active.
  for (const double half_life : {1.0, 50.0, 400.0, 2'000.0}) {
    for (const double threshold : {0.04, 0.3, 1.0, 2.5}) {
      core::IncrementalRuleset strategy(1, half_life, threshold);
      DriftingPairs stream(seed++);
      auto rule_active = [&](core::HostId source, core::HostId replier) {
        return strategy.decayed_count(source, replier) >= threshold;
      };
      ASSERT_NO_FATAL_FAILURE(expect_upkeep_exact(
          strategy, stream, 6'000, rule_active,
          "half-life " + std::to_string(half_life) + " threshold " +
              std::to_string(threshold)));
    }
  }
}

}  // namespace
}  // namespace aar
