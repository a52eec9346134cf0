// Golden regression for the replay kernels: every count the block
// evaluators and the strategies produce on a fixed seeded trace, folded into
// one FNV-1a digest per case.  The digests were captured before the kernels
// moved onto flat tables; any changed (N, n, s), generation count or rule
// byte makes the matching case fail.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/dimensioned.hpp"
#include "core/forwarder.hpp"
#include "core/measures.hpp"
#include "core/strategy.hpp"
#include "trace/generator.hpp"
#include "util/rng.hpp"

namespace aar::core {
namespace {

constexpr std::size_t kBlock = 10'000;
constexpr std::size_t kBlocks = 41;  // bootstrap + 40 tested blocks

const std::vector<QueryReplyPair>& golden_trace() {
  static const std::vector<QueryReplyPair> pairs = [] {
    trace::TraceConfig config;
    config.seed = 2006;
    config.block_size = kBlock;
    trace::TraceGenerator generator(config);
    return generator.generate_pairs(kBlocks * kBlock);
  }();
  return pairs;
}

Block block(std::size_t b) {
  return Block(golden_trace()).subspan(b * kBlock, kBlock);
}

class Fnv1a {
 public:
  void add(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(value >> (8 * i)));
  }
  void add(const BlockMeasures& m) {
    add(m.total_queries);
    add(m.covered);
    add(m.successful);
  }
  void add(const std::string& bytes) {
    for (const char c : bytes) byte(static_cast<std::uint8_t>(c));
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  void byte(std::uint8_t b) {
    hash_ ^= b;
    hash_ *= 0x100000001b3ull;
  }
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

std::string hex(std::uint64_t value) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

/// Bootstrap on block 0, test blocks 1..40, then digest every per-block
/// (N, n, s), the generation count and the final RuleSet::save bytes.
std::uint64_t strategy_digest(Strategy& strategy) {
  Fnv1a digest;
  strategy.bootstrap(block(0));
  for (std::size_t b = 1; b < kBlocks; ++b) digest.add(strategy.test_block(block(b)));
  digest.add(strategy.rulesets_generated());
  std::ostringstream rules;
  strategy.current_ruleset().save(rules);
  digest.add(rules.str());
  return digest.value();
}

struct StrategyCase {
  const char* label;
  std::function<std::unique_ptr<Strategy>()> make;
  std::uint64_t digest;
};

void PrintTo(const StrategyCase& c, std::ostream* os) { *os << c.label; }

class ReplayGolden : public ::testing::TestWithParam<StrategyCase> {};

TEST_P(ReplayGolden, StrategyDigestUnchanged) {
  const StrategyCase& c = GetParam();
  const auto strategy = c.make();
  EXPECT_EQ(hex(strategy_digest(*strategy)), hex(c.digest)) << c.label;
}

// The six `aar_sim compare` strategies at their defaults, plus settings
// that force the streaming paths' rare branches: a 50-pair half-life drops
// decayed counts below the table's floor every sweep, and a 100-pair epoch
// rotates the lossy counters a hundred times a block.  The coarse-bucket
// case prunes every 4 pairs, rotates every 10 (not a multiple of the bucket
// width) and activates at 2, so a key seen once last epoch and counted fresh
// by a bucket's last pair crosses the threshold and is pruned in the same
// add.  The two low-threshold cases activate at 0.04, below the 0.05 drop
// floor.  At a 50-pair half-life a 1,000-pair sweep takes every count far
// below both; at 400 pairs some counts land in [0.04, 0.05), so the sweep
// drops entries that are still active.
INSTANTIATE_TEST_SUITE_P(
    Strategies, ReplayGolden,
    ::testing::Values(
        StrategyCase{"static", [] { return std::make_unique<StaticRuleset>(10); },
                     0x377dbd01e9b44d11ull},
        StrategyCase{"sliding", [] { return std::make_unique<SlidingWindow>(10); },
                     0xf44c24eb15bc4be6ull},
        StrategyCase{"lazy",
                     [] { return std::make_unique<LazySlidingWindow>(10, 10); },
                     0xe874a9916c5f3191ull},
        StrategyCase{"adaptive",
                     [] { return std::make_unique<AdaptiveSlidingWindow>(10, 10); },
                     0xadf90f290db5ae28ull},
        StrategyCase{"incremental",
                     [] { return std::make_unique<IncrementalRuleset>(10); },
                     0x2676253a6a9f6e24ull},
        StrategyCase{"streaming",
                     [] { return std::make_unique<StreamingRuleset>(10); },
                     0xe2a5442e21477d6bull},
        StrategyCase{"incremental_fast_decay",
                     [] { return std::make_unique<IncrementalRuleset>(1, 50.0, 2.0); },
                     0x7a5a516e077d469full},
        StrategyCase{"streaming_short_epoch",
                     [] {
                       return std::make_unique<StreamingRuleset>(10, 1e-3, 100, 3.0);
                     },
                     0x114256ebbcae813aull},
        StrategyCase{"streaming_coarse_buckets",
                     [] {
                       return std::make_unique<StreamingRuleset>(10, 0.25, 10, 2.0);
                     },
                     0x4e5d3368b2d5e11eull},
        StrategyCase{"incremental_low_threshold",
                     [] { return std::make_unique<IncrementalRuleset>(1, 50.0, 0.04); },
                     0x1be615f8574553d0ull},
        StrategyCase{"incremental_drop_while_active",
                     [] { return std::make_unique<IncrementalRuleset>(1, 400.0, 0.04); },
                     0x26b629106680e265ull}),
    [](const ::testing::TestParamInfo<StrategyCase>& param) {
      return std::string(param.param.label);
    });

TEST(ReplayGoldenEvaluators, ForwardingDigestUnchanged) {
  Fnv1a digest;
  for (const SelectionMode mode : {SelectionMode::kTopK, SelectionMode::kRandomK}) {
    const Forwarder forwarder(ForwarderConfig{.k = 2, .mode = mode});
    util::Rng rng(17);
    for (std::size_t b = 1; b < kBlocks; ++b) {
      const RuleSet rules = RuleSet::build(block(b - 1), 10);
      digest.add(evaluate_forwarding(rules, block(b), forwarder, rng));
    }
  }
  EXPECT_EQ(hex(digest.value()), hex(0x145d0032c249d8d8ull));
}

TEST(ReplayGoldenEvaluators, DimensionedDigestUnchanged) {
  Fnv1a digest;
  const DimensionFn dimension = category_dimension();
  for (std::size_t b = 1; b < kBlocks; ++b) {
    const DimensionedRuleSet rules =
        DimensionedRuleSet::build(block(b - 1), 10, dimension);
    digest.add(evaluate_dimensioned(rules, block(b), dimension));
  }
  EXPECT_EQ(hex(digest.value()), hex(0xec986080696769adull));
}

TEST(ReplayGoldenEvaluators, PlainEvaluateDigestUnchanged) {
  Fnv1a digest;
  for (std::size_t b = 1; b < kBlocks; ++b) {
    digest.add(evaluate(RuleSet::build(block(b - 1), 10), block(b)));
  }
  EXPECT_EQ(hex(digest.value()), hex(0xde24c33f2afe9ee5ull));
}

}  // namespace
}  // namespace aar::core
