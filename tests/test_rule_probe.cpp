// RuleProbe against RuleSet: the fixed-window coverage and success tests the
// evaluation kernel runs must answer exactly what the rule set's own range
// scan answers, for every layout the miner leaves a rule set in, for the
// extreme host ids a loaded file may name, and when keys crowd one window.

#include "core/rule_probe.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/ruleset.hpp"
#include "mining/incremental_miner.hpp"
#include "util/rng.hpp"

namespace aar::core {
namespace {

using trace::kNoHost;
using trace::QueryReplyPair;

/// Every host the rule set names, plus ids around the ends of the range.
std::vector<HostId> hosts_of(const RuleSet& rules) {
  std::vector<HostId> hosts{0, 1, 2, kNoHost - 1, kNoHost};
  rules.for_each([&](HostId antecedent, std::span<const Consequent> consequents) {
    hosts.push_back(antecedent);
    for (const Consequent& c : consequents) hosts.push_back(c.neighbor);
  });
  std::sort(hosts.begin(), hosts.end());
  hosts.erase(std::unique(hosts.begin(), hosts.end()), hosts.end());
  return hosts;
}

/// The probe of `rules` agrees with its range scan on every (antecedent,
/// consequent) of the hosts it names, and on `random` random pairs.
void expect_agrees(const RuleSet& rules, std::uint64_t seed, int random = 2'000) {
  const RuleProbe probe(rules);
  const std::vector<HostId> hosts = hosts_of(rules);
  for (const HostId a : hosts) {
    ASSERT_EQ(probe.covers(a), rules.covers(a)) << "antecedent " << a;
    for (const HostId c : hosts) {
      ASSERT_EQ(probe.matches(a, c), rules.matches(a, c)) << a << " -> " << c;
    }
  }
  util::Rng rng(seed);
  for (int i = 0; i < random; ++i) {
    const auto a = static_cast<HostId>(rng());
    const auto c = static_cast<HostId>(rng());
    ASSERT_EQ(probe.covers(a), rules.covers(a)) << "antecedent " << a;
    ASSERT_EQ(probe.matches(a, c), rules.matches(a, c)) << a << " -> " << c;
  }
}

QueryReplyPair pair(std::uint64_t guid, HostId source, HostId replier) {
  return QueryReplyPair{.time = static_cast<double>(guid),
                        .guid = guid,
                        .source_host = source,
                        .replying_neighbor = replier};
}

/// `n` skewed random pairs over `hosts` sources and repliers.
std::vector<QueryReplyPair> random_pairs(util::Rng& rng, std::size_t n,
                                         HostId hosts, std::uint64_t first_guid) {
  std::vector<QueryReplyPair> pairs;
  for (std::size_t i = 0; i < n; ++i) {
    const auto source = static_cast<HostId>(rng.below(hosts));
    // Most replies come through a few neighbors per source, so rules form.
    const auto replier = static_cast<HostId>(
        rng.chance(0.8) ? (source * 7 + rng.below(3)) % hosts : rng.below(hosts));
    pairs.push_back(pair(first_guid + i, source, replier));
  }
  return pairs;
}

RuleSet loaded(const std::string& rows) {
  std::istringstream in("antecedent,consequent,support\n" + rows);
  return RuleSet::load(in);
}

/// The first `n` u32 values whose key `key_of(value)` has its home in slot 0
/// of every table of up to 2^bits home slots.
template <typename KeyOf>
std::vector<HostId> crowding(std::size_t n, unsigned bits, KeyOf key_of) {
  std::vector<HostId> values;
  for (HostId v = 0; values.size() < n; ++v) {
    if (WindowSet::home(key_of(v), 64 - bits) == 0) values.push_back(v);
  }
  return values;
}

TEST(RuleProbe, AgreesOnBuiltRuleSets) {
  util::Rng rng(11);
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto pairs = random_pairs(rng, 4'000, 40 + 30 * static_cast<HostId>(seed), 0);
    for (const std::uint32_t support : {1u, 3u, 10u}) {
      expect_agrees(RuleSet::build(pairs, support), seed);
    }
  }
  expect_agrees(RuleSet{}, 7);
}

TEST(RuleProbe, AgreesThroughEveryMinerUpdate) {
  // One bounded-window miner driven through add (with eviction once the
  // window is full), explicit eviction, purge_host and replace_window; the
  // probe of every snapshot must agree with its rule set.
  util::Rng rng(5);
  mining::IncrementalRuleMiner miner({.window = 3'000, .min_support = 2});
  std::uint64_t guid = 0;
  for (int round = 0; round < 12; ++round) {
    for (const QueryReplyPair& p : random_pairs(rng, 700, 120, guid)) miner.add(p);
    guid += 700;
    expect_agrees(miner.snapshot(), 100 + static_cast<std::uint64_t>(round), 300);
  }
  EXPECT_GT(miner.evictions(), 0u);

  miner.evict_to(1'500);
  expect_agrees(miner.snapshot(), 200, 300);

  for (const HostId departed : {HostId{3}, HostId{17}, HostId{21}}) {
    EXPECT_GT(miner.purge_host(departed), 0u);
    const RuleSet& rules = miner.snapshot();
    EXPECT_FALSE(RuleProbe(rules).covers(departed));
    expect_agrees(rules, 300 + departed, 300);
  }

  for (int round = 0; round < 4; ++round) {
    const auto block = random_pairs(rng, 2'000, 90, guid);
    guid += 2'000;
    mining::ShardCounts counts;
    counts.count(block);
    miner.replace_window(block, counts);
    expect_agrees(miner.snapshot(), 400 + static_cast<std::uint64_t>(round), 300);
  }
}

TEST(RuleProbe, AgreesAcrossRelocationsAndCompaction) {
  // An antecedent whose consequent list grows at every snapshot is moved to
  // the end of the consequent array each time, leaving its old range dead,
  // so the array compacts over and over while other antecedents stay put.
  mining::IncrementalRuleMiner miner({.window = 0, .min_support = 1});
  std::uint64_t guid = 0;
  for (HostId other = 100; other < 110; ++other) miner.add(pair(guid++, other, other + 1));
  for (HostId consequent = 1; consequent <= 60; ++consequent) {
    miner.add(pair(guid++, 7, 1'000 + consequent));
    const RuleSet& rules = miner.snapshot();
    ASSERT_EQ(rules.consequents(7).size(), consequent);
    expect_agrees(rules, consequent, 50);
  }
  // Shrink it again: evictions take the other antecedents and its oldest rules.
  while (miner.window_size() > 20) {
    miner.evict_oldest();
    expect_agrees(miner.snapshot(), guid++, 50);
  }
}

TEST(RuleProbe, AgreesOnLoadedExtremeHostIds) {
  // Host 0 and trace::kNoHost as antecedent and consequent: the pair key of
  // (kNoHost, kNoHost) is all ones, the value an empty slot would otherwise
  // hold, and (0, 0) is zero.
  const RuleSet all = loaded(
      "0,0,4\n0,4294967295,3\n4294967295,0,2\n4294967295,4294967295,1\n"
      "4294967295,4294967294,1\n");
  const RuleProbe probe(all);
  EXPECT_TRUE(probe.covers(0));
  EXPECT_TRUE(probe.covers(kNoHost));
  EXPECT_TRUE(probe.matches(0, 0));
  EXPECT_TRUE(probe.matches(0, kNoHost));
  EXPECT_TRUE(probe.matches(kNoHost, 0));
  EXPECT_TRUE(probe.matches(kNoHost, kNoHost));
  EXPECT_TRUE(probe.matches(kNoHost, kNoHost - 1));
  // The first free value below all ones marks empty slots here; it is no rule.
  EXPECT_FALSE(probe.matches(kNoHost, kNoHost - 2));
  EXPECT_FALSE(probe.matches(1, 0));
  EXPECT_FALSE(probe.covers(1));
  expect_agrees(all, 1);

  // Each extreme alone, and neither.
  expect_agrees(loaded("4294967295,4294967295,9\n"), 2);
  expect_agrees(loaded("0,0,9\n"), 3);
  expect_agrees(loaded("4294967295,7,9\n7,0,9\n"), 4);
  expect_agrees(loaded(""), 5);
}

TEST(RuleProbe, AFullWindowAnswersEveryKeyWithoutGrowing) {
  // kWindow antecedents whose homes coincide in every table of up to 2^10
  // slots fill one window exactly: the last sits kWindow - 1 slots past its
  // home, and the table does not grow (8 keys start at 32 home slots).
  const std::vector<HostId> ids =
      crowding(WindowSet::kWindow, 10, [](HostId v) { return std::uint64_t{v}; });
  std::string rows;
  for (const HostId id : ids) rows += std::to_string(id) + ",5,3\n";
  const RuleSet rules = loaded(rows);
  const RuleProbe probe(rules);
  for (const HostId id : ids) {
    EXPECT_TRUE(probe.covers(id)) << id;
    EXPECT_TRUE(probe.matches(id, 5)) << id;
  }
  EXPECT_EQ(probe.antecedents().capacity(), 32u);
  EXPECT_EQ(probe.antecedents().overflowed(), 0u);
  expect_agrees(rules, 9);

  // The same for the rule table: one antecedent's consequents crowding one
  // window of (antecedent, consequent) keys.
  const std::vector<HostId> repliers = crowding(
      WindowSet::kWindow, 10, [](HostId v) { return RuleProbe::pair_key(42, v); });
  rows.clear();
  for (const HostId r : repliers) rows += "42," + std::to_string(r) + ",2\n";
  const RuleSet fan = loaded(rows);
  const RuleProbe fan_probe(fan);
  for (const HostId r : repliers) EXPECT_TRUE(fan_probe.matches(42, r)) << r;
  EXPECT_EQ(fan_probe.rules().capacity(), 32u);
  expect_agrees(fan, 10);
}

TEST(RuleProbe, AnOverflowingWindowGrowsTheTable) {
  // kWindow + 1 antecedents sharing a home at 64 slots (where 9 keys
  // start) overflow it; the table doubles until they fit.
  const std::vector<HostId> ids =
      crowding(WindowSet::kWindow + 1, 6, [](HostId v) { return std::uint64_t{v}; });
  std::string rows;
  for (const HostId id : ids) {
    rows += std::to_string(id) + "," + std::to_string(id) + ",1\n";
  }
  const RuleSet rules = loaded(rows);
  const RuleProbe probe(rules);
  EXPECT_GT(probe.antecedents().capacity(), 64u);
  EXPECT_EQ(probe.antecedents().overflowed(), 0u);
  for (const HostId id : ids) EXPECT_TRUE(probe.covers(id)) << id;
  expect_agrees(rules, 11);
}

TEST(RuleProbe, KeysCollidingPastTheGrowthLimitGoToTheOverflowList) {
  // kWindow + 1 antecedents that share a home in every table the growth
  // limit allows: one overflows into the list, and every key is still found.
  const std::vector<HostId> ids =
      crowding(WindowSet::kWindow + 1, 12, [](HostId v) { return std::uint64_t{v}; });
  std::string rows;
  for (const HostId id : ids) rows += std::to_string(id) + ",1,1\n";
  const RuleSet rules = loaded(rows);
  const RuleProbe probe(rules);
  EXPECT_EQ(probe.antecedents().capacity(), std::size_t{64} << WindowSet::kMaxGrowth);
  EXPECT_EQ(probe.antecedents().overflowed(), 1u);
  for (const HostId id : ids) EXPECT_TRUE(probe.covers(id)) << id;
  expect_agrees(rules, 12);
}

}  // namespace
}  // namespace aar::core
