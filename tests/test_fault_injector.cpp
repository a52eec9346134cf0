// Unit tests for the aar::fault layer: plan / schedule / injector semantics
// and the "aar.faults.v1" scenario format (parse, round-trip, rejection).

#include "fault/fault.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <vector>

#include "fault/scenario.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace aar::fault {
namespace {

/// The verdict of the hop `from -> to`, sent by the first pass's event at
/// `slot` (the one hop of its sender).
ForwardVerdict forward(const FaultInjector& injector, NodeId from, NodeId to,
                       std::uint64_t slot = 0) {
  return injector.on_forward({injector.sender_key(0, slot, from, 0), from, to, 0});
}

TEST(PeerStateNames, RoundTrip) {
  for (const PeerState state :
       {PeerState::healthy, PeerState::crashed, PeerState::slow,
        PeerState::free_riding}) {
    EXPECT_EQ(peer_state_from(to_string(state)), state);
  }
  EXPECT_THROW((void)peer_state_from("zombie"), std::runtime_error);
}

TEST(FaultSchedule, KeepsEventsSortedStably) {
  FaultSchedule schedule;
  schedule.add({.at = 30, .kind = FaultEvent::Kind::crash, .node = 1});
  schedule.add({.at = 10, .kind = FaultEvent::Kind::crash, .node = 2});
  schedule.add({.at = 30, .kind = FaultEvent::Kind::heal, .node = 3});
  ASSERT_EQ(schedule.events().size(), 3u);
  EXPECT_EQ(schedule.events()[0].node, 2u);
  // Same stamp: scripting order is the tie-break.
  EXPECT_EQ(schedule.events()[1].node, 1u);
  EXPECT_EQ(schedule.events()[1].kind, FaultEvent::Kind::crash);
  EXPECT_EQ(schedule.events()[2].node, 3u);
  EXPECT_EQ(schedule.events()[2].kind, FaultEvent::Kind::heal);
}

TEST(FaultInjector, CrashedPeerDropsEveryInboundMessage) {
  FaultPlan plan;
  plan.peers.push_back({.node = 2, .state = PeerState::crashed});
  FaultInjector injector(plan, {}, 1, 8);
  EXPECT_TRUE(injector.crashed(2));
  EXPECT_TRUE(forward(injector, 1, 2).dropped());
  EXPECT_FALSE(forward(injector, 2, 1).dropped());  // out of a crashed node
  EXPECT_FALSE(forward(injector, 0, 1).dropped());
}

TEST(FaultInjector, ScheduleAppliesUpToClock) {
  FaultSchedule schedule;
  schedule.add({.at = 5, .kind = FaultEvent::Kind::crash, .node = 1});
  schedule.add({.at = 9, .kind = FaultEvent::Kind::heal, .node = 1});
  FaultInjector injector(FaultPlan::none(), schedule, 1, 4);

  injector.begin_search(4);
  EXPECT_FALSE(injector.crashed(1));
  EXPECT_EQ(injector.events_applied(), 0u);

  injector.begin_search(5);
  EXPECT_TRUE(injector.crashed(1));
  EXPECT_EQ(injector.events_applied(), 1u);

  injector.begin_search(20);  // both remaining events fire
  EXPECT_FALSE(injector.crashed(1));
  EXPECT_EQ(injector.events_applied(), 2u);
}

TEST(FaultInjector, PartitionSeversCrossPivotLinksOnly) {
  FaultSchedule schedule;
  schedule.add({.at = 1, .kind = FaultEvent::Kind::partition, .pivot = 4});
  schedule.add({.at = 3, .kind = FaultEvent::Kind::heal_partition});
  FaultInjector injector(FaultPlan::none(), schedule, 1, 8);

  injector.begin_search(1);
  EXPECT_TRUE(injector.partitioned());
  EXPECT_TRUE(injector.severed(0, 5));
  EXPECT_TRUE(injector.severed(5, 0));
  EXPECT_FALSE(injector.severed(0, 3));
  EXPECT_FALSE(injector.severed(5, 7));
  EXPECT_TRUE(forward(injector, 1, 6).dropped());
  EXPECT_TRUE(injector.reply_lost(6, 1));

  injector.begin_search(3);
  EXPECT_FALSE(injector.partitioned());
  EXPECT_FALSE(forward(injector, 1, 6).dropped());
}

TEST(FaultInjector, SlowPeersDelayAndStillAnswer) {
  FaultPlan plan;
  plan.slow_extra = 7;
  plan.peers.push_back({.node = 1, .state = PeerState::slow});
  FaultInjector injector(plan, {}, 1, 4);
  EXPECT_EQ(forward(injector, 0, 1).delay, 7u);
  EXPECT_EQ(forward(injector, 1, 2).delay, 7u);
  EXPECT_EQ(forward(injector, 2, 3).delay, 0u);
  EXPECT_TRUE(injector.shares_content(1));
}

TEST(FaultInjector, FreeRidersForwardButNeverAnswer) {
  FaultPlan plan;
  plan.peers.push_back({.node = 3, .state = PeerState::free_riding});
  FaultInjector injector(plan, {}, 1, 8);
  EXPECT_FALSE(injector.shares_content(3));
  EXPECT_FALSE(forward(injector, 2, 3).dropped());  // still forwards
  EXPECT_TRUE(injector.probe_lost(0, 3));           // but probes go unanswered
  EXPECT_TRUE(injector.shares_content(4));
}

TEST(FaultInjector, LinkOverrideBeatsGlobalDrop) {
  FaultPlan plan;
  plan.drop = 0.0;
  plan.links.push_back({.a = 0, .b = 1, .drop = 1.0});
  FaultInjector injector(plan, {}, 1, 4);
  EXPECT_TRUE(forward(injector, 0, 1).dropped());
  EXPECT_TRUE(forward(injector, 1, 0).dropped());  // undirected
  EXPECT_FALSE(forward(injector, 1, 2).dropped());
  EXPECT_TRUE(injector.reply_lost(1, 0));
  EXPECT_FALSE(injector.reply_lost(1, 2));
}

TEST(FaultInjector, ReplacedPeerJoinsHealthy) {
  FaultPlan plan;
  plan.peers.push_back({.node = 2, .state = PeerState::crashed});
  FaultInjector injector(plan, {}, 1, 4);
  ASSERT_TRUE(injector.crashed(2));
  injector.on_peer_replaced(2);
  EXPECT_FALSE(injector.crashed(2));
  EXPECT_TRUE(injector.shares_content(2));
}

TEST(FaultInjector, LosslessPlanNeverTouchesItsRng) {
  // Two injectors from the same seed; one answers thousands of lossless
  // queries first.  If any verdict had drawn from the rng the streams
  // would diverge.
  FaultInjector used(FaultPlan::none(), {}, 99, 16);
  FaultInjector fresh(FaultPlan::none(), {}, 99, 16);
  for (int i = 0; i < 5'000; ++i) {
    const ForwardVerdict v = forward(used, 0, 1, static_cast<std::uint64_t>(i));
    EXPECT_FALSE(v.dropped());
    EXPECT_FALSE(v.duplicated);
    EXPECT_EQ(v.delay, 0u);
    EXPECT_FALSE(used.reply_lost(1, 0));
    EXPECT_FALSE(used.probe_lost(0, 1));
  }
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(used.rng().below(1'000'000), fresh.rng().below(1'000'000));
  }
}

TEST(FaultInjector, SameSeedSameVerdictStream) {
  FaultPlan plan;
  plan.drop = 0.3;
  plan.duplicate = 0.2;
  plan.max_delay = 5;
  FaultInjector a(plan, {}, 1234, 8);
  FaultInjector b(plan, {}, 1234, 8);
  for (int i = 0; i < 2'000; ++i) {
    const auto slot = static_cast<std::uint64_t>(i);
    const ForwardVerdict va = forward(a, 0, 1, slot);
    const ForwardVerdict vb = forward(b, 0, 1, slot);
    EXPECT_EQ(va.loss, vb.loss);
    EXPECT_EQ(va.duplicated, vb.duplicated);
    EXPECT_EQ(va.delay, vb.delay);
  }
}

// --- the verdict function --------------------------------------------------

/// |observed - n p| within five binomial standard deviations.
void expect_binomial(std::uint64_t observed, std::uint64_t n, double p,
                     const char* what) {
  const double mean = static_cast<double>(n) * p;
  const double sd = std::sqrt(static_cast<double>(n) * p * (1.0 - p));
  EXPECT_LE(std::fabs(static_cast<double>(observed) - mean), 5.0 * sd + 1.0)
      << what << ": " << observed << " of " << n << ", expected " << mean;
}

TEST(FaultVerdicts, RatesMatchThePlanWithinBinomialBounds) {
  // Keys shaped like the engine's: consecutive searches, passes and slots,
  // senders with consecutive ids and several targets each, and a walker's
  // second copy of every event.  Drops, duplicates and each delay value
  // must come at the plan's rates, and a hop's verdicts under two copies
  // agree no more often than two independent draws would.
  FaultPlan plan;
  plan.drop = 0.1;
  plan.duplicate = 0.2;
  plan.max_delay = 3;
  constexpr NodeId kNodes = 4096;
  FaultInjector injector(plan, {}, 77, kNodes);
  std::uint64_t hops = 0;
  std::uint64_t dropped = 0;
  std::uint64_t duplicated = 0;
  std::array<std::uint64_t, 4> delays{};
  std::uint64_t pairs = 0;
  std::uint64_t agree = 0;
  for (std::uint64_t clock = 1; clock <= 20; ++clock) {
    injector.begin_search(clock);
    for (std::uint32_t pass = 0; pass < 2; ++pass) {
      for (std::uint64_t slot = 0; slot < 4; ++slot) {
        for (NodeId from = 0; from < 64; ++from) {
          const std::uint64_t first = injector.sender_key(pass, slot, from, 0);
          const std::uint64_t second = injector.sender_key(pass, slot, from, 1);
          for (std::uint32_t index = 0; index < 8; ++index) {
            const NodeId to = (from * 8 + index + 1) % kNodes;
            const ForwardVerdict a = injector.on_forward({first, from, to, index});
            const ForwardVerdict b = injector.on_forward({second, from, to, index});
            for (const ForwardVerdict& v : {a, b}) {
              ++hops;
              if (v.dropped()) {
                ++dropped;
                continue;
              }
              duplicated += v.duplicated ? 1u : 0u;
              ASSERT_LE(v.delay, plan.max_delay);
              ++delays[v.delay];
            }
            ++pairs;
            agree += a.dropped() == b.dropped() ? 1u : 0u;
          }
        }
      }
    }
  }
  ASSERT_EQ(hops, 163'840u);
  expect_binomial(dropped, hops, plan.drop, "dropped");
  const std::uint64_t delivered = hops - dropped;
  expect_binomial(duplicated, delivered, plan.duplicate, "duplicated");
  for (std::size_t d = 0; d < delays.size(); ++d) {
    expect_binomial(delays[d], delivered, 0.25, "delay value");
  }
  const double p_agree = plan.drop * plan.drop + (1 - plan.drop) * (1 - plan.drop);
  expect_binomial(agree, pairs, p_agree, "copies agreeing");
}

TEST(FaultVerdicts, EveryKeyFieldMovesTheVerdict) {
  // Changing any one field of a hop's key — search clock, pass, slot,
  // sender, copy, target or index — must redraw it: at drop 0.5, 4,000
  // hops differing in one field disagree about half the time.
  FaultPlan plan;
  plan.drop = 0.5;
  FaultInjector injector(plan, {}, 5, 64);
  const auto drops = [&injector](std::uint64_t clock, std::uint32_t pass,
                                 std::uint64_t slot, NodeId from,
                                 std::uint32_t copy, NodeId to,
                                 std::uint32_t index) {
    injector.begin_search(clock);
    return injector
        .on_forward({injector.sender_key(pass, slot, from, copy), from, to, index})
        .dropped();
  };
  constexpr int kHops = 4'000;
  std::array<int, 7> differ{};
  for (int i = 0; i < kHops; ++i) {
    const auto clock = static_cast<std::uint64_t>(i / 40 + 1);
    const auto slot = static_cast<std::uint64_t>(i % 5);
    const auto from = static_cast<NodeId>(i % 31);
    const auto to = static_cast<NodeId>((i + 7) % 29);
    const auto index = static_cast<std::uint32_t>(i % 3);
    const bool base = drops(clock, 0, slot, from, 0, to, index);
    differ[0] += base != drops(clock + 1, 0, slot, from, 0, to, index);
    differ[1] += base != drops(clock, 1, slot, from, 0, to, index);
    differ[2] += base != drops(clock, 0, slot + 1, from, 0, to, index);
    differ[3] += base != drops(clock, 0, slot, from + 31, 0, to, index);
    differ[4] += base != drops(clock, 0, slot, from, 1, to, index);
    differ[5] += base != drops(clock, 0, slot, from, 0, to + 29, index);
    differ[6] += base != drops(clock, 0, slot, from, 0, to, index + 3);
  }
  for (const int d : differ) {
    expect_binomial(static_cast<std::uint64_t>(d), kHops, 0.5, "field changed");
  }
}

// --- pinned: the verdict stream -------------------------------------------
//
// One seeded script of on_forward / reply_lost / probe_lost calls, mixed
// with state flips over all four states, partitions and heals, per plan;
// each forward's key names its call.  The digest folds every verdict (its
// loss cause, duplicate and delay) and then the fault rng's next draw, so a
// change to the verdict hash, a reply or probe draw added, skipped or
// moved, or a slow, crashed, free-riding or severed hop treated
// differently, moves it.  Re-recorded once when a forward's verdict became
// a hash of its key.

std::uint64_t verdict_stream(const FaultPlan& plan, std::uint64_t seed) {
  constexpr NodeId kNodes = 48;
  FaultInjector injector(plan, {}, seed, kNodes);
  util::Rng script(seed ^ 0x5c41d7ULL);
  std::vector<std::uint8_t> bytes;
  for (int call = 0; call < 25'000; ++call) {
    const auto from = static_cast<NodeId>(script.below(kNodes));
    const auto to = static_cast<NodeId>(script.below(kNodes));
    const std::uint64_t action = script.below(100);
    if (action < 3) {
      injector.set_state(to, static_cast<PeerState>(script.below(4)));
    } else if (action < 4) {
      injector.partition(static_cast<NodeId>(1 + script.below(kNodes - 1)));
    } else if (action < 6) {
      injector.heal_partition();
    } else if (action < 80) {
      const ForwardVerdict verdict = injector.on_forward(
          {injector.sender_key(0, static_cast<std::uint64_t>(call), from, 0),
           from, to, 0});
      bytes.push_back(static_cast<std::uint8_t>(verdict.loss));
      bytes.push_back(verdict.duplicated ? 1 : 0);
      util::put_u32(bytes, verdict.delay);
    } else if (action < 90) {
      bytes.push_back(injector.reply_lost(from, to) ? 3 : 2);
    } else {
      bytes.push_back(injector.probe_lost(from, to) ? 5 : 4);
    }
  }
  util::put_u64(bytes, injector.rng()());
  return util::fnv1a(bytes);
}

TEST(FaultInjectorPins, VerdictStreamIsPinned) {
  // Drop only: every hop is a plain one unless a flip, a partition or a
  // crash says otherwise.
  FaultPlan drop_only;
  drop_only.drop = 0.1;
  // Per-link overrides beside the global drop.
  FaultPlan links = drop_only;
  links.links = {{.a = 1, .b = 2, .drop = 0.9},
                 {.a = 5, .b = 40, .drop = 0.0},
                 {.a = 17, .b = 3, .drop = 0.5}};
  // Duplicates and delay, with slow and crashed peers from the start.
  FaultPlan full;
  full.drop = 0.05;
  full.duplicate = 0.2;
  full.max_delay = 3;
  full.slow_extra = 2;
  full.peers = {{.node = 4, .state = PeerState::slow},
                {.node = 9, .state = PeerState::crashed},
                {.node = 11, .state = PeerState::free_riding}};
  // Duplicates alone: a duplicate draw with no delay draw after it.
  FaultPlan duplicates;
  duplicates.drop = 0.02;
  duplicates.duplicate = 0.3;
  EXPECT_EQ(verdict_stream(drop_only, 101), 0x592b3e5d7acb042cULL);
  EXPECT_EQ(verdict_stream(links, 202), 0xa279037782147affULL);
  EXPECT_EQ(verdict_stream(full, 303), 0x432bc27110f2ca87ULL);
  EXPECT_EQ(verdict_stream(duplicates, 404), 0xb686cd69357eeb7cULL);
}

// --- scenario format -------------------------------------------------------

Scenario parse_text(const std::string& text) {
  std::istringstream in(text);
  return parse_scenario(in);
}

TEST(ScenarioFormat, ParsesEveryKey) {
  const Scenario s = parse_text(
      "aar.faults.v1\n"
      "# comment\n"
      "nodes 50\nattach 2\nwarmup 10\nqueries 20\nepochs 3\nchurn 5\n"
      "policy flooding\nttl 4\n"
      "timeout 32\nretries 2\nbackoff 3\njitter 1\nwiden 2\n"
      "drop 0.25\nduplicate 0.1\ndelay 2\nslow-extra 6\n"
      "peer 7 slow\nlink 1 2 0.5\n"
      "at 9 crash 3\nat 12 state 4 free-riding\nat 15 partition 25\n"
      "at 20 heal-partition\nat 21 heal 3\n");
  EXPECT_EQ(s.nodes, 50u);
  EXPECT_EQ(s.attach, 2u);
  EXPECT_EQ(s.warmup, 10u);
  EXPECT_EQ(s.queries, 20u);
  EXPECT_EQ(s.epochs, 3u);
  EXPECT_EQ(s.churn, 5u);
  EXPECT_EQ(s.policy, "flooding");
  EXPECT_EQ(s.ttl, 4u);
  EXPECT_EQ(s.timeout, 32u);
  EXPECT_EQ(s.retries, 2u);
  EXPECT_EQ(s.backoff, 3u);
  EXPECT_EQ(s.jitter, 1u);
  EXPECT_EQ(s.widen, 2u);
  EXPECT_DOUBLE_EQ(s.plan.drop, 0.25);
  EXPECT_DOUBLE_EQ(s.plan.duplicate, 0.1);
  EXPECT_EQ(s.plan.max_delay, 2u);
  EXPECT_EQ(s.plan.slow_extra, 6u);
  ASSERT_EQ(s.plan.peers.size(), 1u);
  EXPECT_EQ(s.plan.peers[0].node, 7u);
  EXPECT_EQ(s.plan.peers[0].state, PeerState::slow);
  ASSERT_EQ(s.plan.links.size(), 1u);
  EXPECT_DOUBLE_EQ(s.plan.links[0].drop, 0.5);
  ASSERT_EQ(s.schedule.events().size(), 5u);
  EXPECT_EQ(s.schedule.events()[0].kind, FaultEvent::Kind::crash);
  EXPECT_EQ(s.schedule.events()[1].kind, FaultEvent::Kind::set_state);
  EXPECT_EQ(s.schedule.events()[1].state, PeerState::free_riding);
  EXPECT_EQ(s.schedule.events()[2].kind, FaultEvent::Kind::partition);
  EXPECT_EQ(s.schedule.events()[2].pivot, 25u);
  EXPECT_EQ(s.schedule.events()[4].kind, FaultEvent::Kind::heal);
}

TEST(ScenarioFormat, RejectsMalformedInput) {
  EXPECT_THROW((void)parse_text("not-the-magic\nnodes 10\n"),
               std::runtime_error);
  EXPECT_THROW((void)parse_text("aar.faults.v1\nbogus-key 3\n"),
               std::runtime_error);
  EXPECT_THROW((void)parse_text("aar.faults.v1\nnodes ten\n"),
               std::runtime_error);
  EXPECT_THROW((void)parse_text("aar.faults.v1\ndrop 1.5\n"),
               std::runtime_error);
  EXPECT_THROW((void)parse_text("aar.faults.v1\npeer 1 zombie\n"),
               std::runtime_error);
  EXPECT_THROW((void)parse_text("aar.faults.v1\nat 5 explode 1\n"),
               std::runtime_error);
  EXPECT_THROW((void)parse_text("aar.faults.v1\nnodes\n"), std::runtime_error);
  EXPECT_THROW((void)parse_text(""), std::runtime_error);
}

TEST(ScenarioFormat, RejectsAttachNotBelowNodes) {
  // `aar_sim faults` on nodes 3 / attach 5 used to crash a Release build:
  // the Barabási–Albert clique seed wrote peers that do not exist.
  for (const char* shape : {"nodes 3\nattach 5\n", "nodes 3\nattach 3\n",
                            "attach 0\n", "attach 200\n"}) {
    try {
      (void)parse_text(std::string("aar.faults.v1\n") + shape);
      ADD_FAILURE() << "accepted " << shape;
    } catch (const std::runtime_error& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find("attach"), std::string::npos) << what;
      EXPECT_NE(what.find("nodes"), std::string::npos) << what;
    }
  }
  EXPECT_EQ(parse_text("aar.faults.v1\nnodes 3\nattach 2\n").attach, 2u);
}

TEST(ScenarioFormat, SaveParseRoundTrips) {
  Scenario s;
  s.nodes = 33;
  s.policy = "flooding";
  s.timeout = 77;
  s.retries = 3;
  s.plan.drop = 0.125;
  s.plan.max_delay = 4;
  s.plan.peers.push_back({.node = 9, .state = PeerState::free_riding});
  s.plan.links.push_back({.a = 1, .b = 2, .drop = 0.75});
  s.schedule.add({.at = 42, .kind = FaultEvent::Kind::crash, .node = 5});
  s.schedule.add({.at = 50, .kind = FaultEvent::Kind::partition, .pivot = 16});

  std::ostringstream out;
  save_scenario(out, s);
  const Scenario r = parse_text(out.str());
  EXPECT_EQ(r.nodes, s.nodes);
  EXPECT_EQ(r.policy, s.policy);
  EXPECT_EQ(r.timeout, s.timeout);
  EXPECT_EQ(r.retries, s.retries);
  EXPECT_DOUBLE_EQ(r.plan.drop, s.plan.drop);
  EXPECT_EQ(r.plan.max_delay, s.plan.max_delay);
  ASSERT_EQ(r.plan.peers.size(), 1u);
  EXPECT_EQ(r.plan.peers[0].state, PeerState::free_riding);
  ASSERT_EQ(r.plan.links.size(), 1u);
  EXPECT_DOUBLE_EQ(r.plan.links[0].drop, 0.75);
  ASSERT_EQ(r.schedule.events().size(), 2u);
  EXPECT_EQ(r.schedule.events()[0].at, 42u);
  EXPECT_EQ(r.schedule.events()[1].pivot, 16u);
}

TEST(ScenarioFormat, LoadsGoldenFilesFromDisk) {
  const Scenario small =
      load_scenario(std::string(AAR_TEST_DATA_DIR) + "/golden_small.v1");
  EXPECT_EQ(small.nodes, 64u);
  EXPECT_EQ(small.policy, "association");
  EXPECT_EQ(small.retries, 2u);
  EXPECT_FALSE(small.schedule.empty());

  const Scenario storm =
      load_scenario(std::string(AAR_TEST_DATA_DIR) + "/golden_churnstorm.v1");
  EXPECT_EQ(storm.nodes, 80u);
  EXPECT_EQ(storm.churn, 8u);
  EXPECT_EQ(storm.schedule.events()[0].kind, FaultEvent::Kind::partition);

  EXPECT_THROW((void)load_scenario("/nonexistent/scenario.v1"),
               std::runtime_error);
}

}  // namespace
}  // namespace aar::fault
