// aar_node daemon tests (docs/NODE.md): the retry-ladder schedule and its
// per-connection jitter seeding, the in-process loopback end-to-end loop
// (serve + replay on real sockets, rules mined from relayed traffic,
// rule-routed hits), shard-count invariance of stats and mined rule bytes
// under a lockstep driver, disconnect purges across shards, live mining
// against the offline miner at every rebuild boundary, the final purge of
// a departed peer under stale rosters and concurrent merges, the
// plain-text admin endpoint, the send-stall ladder against a peer that
// stops reading, the loopback-only default bind, the Gnutella 0.4 relay
// rules (raw loopback clients against a one-shard daemon), and the
// aar_node CLI's flag validation (driven through the real binary).

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <initializer_list>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/ruleset.hpp"
#include "gnutella/codec.hpp"
#include "node/daemon.hpp"
#include "node/net.hpp"
#include "node/replay.hpp"
#include "node/snapshot.hpp"
#include "trace/record.hpp"
#include "util/rng.hpp"

namespace aar::node {
namespace {

// --- retry ladder schedule -----------------------------------------------

TEST(RetryLadder, DelaysDoublePerAttempt) {
  const RetryLadder ladder{.retries = 3, .backoff_ms = 10, .jitter_ms = 0};
  util::Rng rng(1);
  EXPECT_EQ(ladder.delay_ms(0, rng), 10u);
  EXPECT_EQ(ladder.delay_ms(1, rng), 20u);
  EXPECT_EQ(ladder.delay_ms(2, rng), 40u);
  EXPECT_FALSE(ladder.exhausted(2));
  EXPECT_TRUE(ladder.exhausted(3));
}

TEST(RetryLadder, JitterStaysInBounds) {
  const RetryLadder ladder{.retries = 2, .backoff_ms = 8, .jitter_ms = 5};
  util::Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    const std::uint32_t delay = ladder.delay_ms(1, rng);
    EXPECT_GE(delay, 16u);
    EXPECT_LE(delay, 21u);
  }
}

TEST(RetryLadder, ZeroBackoffStillWaits) {
  const RetryLadder ladder{.retries = 1, .backoff_ms = 0, .jitter_ms = 0};
  util::Rng rng(1);
  EXPECT_GE(ladder.delay_ms(0, rng), 1u);  // clamped: a zero wait would spin
}

TEST(RetryLadder, HugeAttemptDoesNotOverflow) {
  const RetryLadder ladder{.retries = 100, .backoff_ms = 1000, .jitter_ms = 0};
  util::Rng rng(1);
  EXPECT_LE(ladder.delay_ms(99, rng), 60u * 1000u);  // capped at a minute
}

// --- per-connection jitter seeding ---------------------------------------

std::vector<std::uint32_t> ladder_schedule(std::uint64_t daemon_seed,
                                           NeighborId id) {
  const RetryLadder ladder{.retries = 6, .backoff_ms = 10, .jitter_ms = 100};
  util::Rng rng(jitter_seed(daemon_seed, id));
  std::vector<std::uint32_t> delays;
  for (std::uint32_t attempt = 0; attempt < ladder.retries; ++attempt) {
    delays.push_back(ladder.delay_ms(attempt, rng));
  }
  return delays;
}

TEST(RetryLadder, JitterScheduleIsAPureFunctionOfSeedAndConnectionId) {
  // The old daemon drew jitter from one shared rng, so every stall
  // perturbed every later connection's schedule; per-connection seeding
  // makes the schedule reproducible from (daemon seed, connection id)
  // alone, whatever else the daemon is doing.
  EXPECT_EQ(ladder_schedule(7, 3), ladder_schedule(7, 3));
  EXPECT_NE(ladder_schedule(7, 3), ladder_schedule(7, 4));
  EXPECT_NE(ladder_schedule(7, 3), ladder_schedule(8, 3));
}

TEST(RetryLadder, JitterSeedSpreadsAdjacentIds) {
  // splitmix64 mixing: adjacent connection ids must not land on nearby
  // rng states (a plain seed+id would).
  const std::uint64_t a = jitter_seed(7, 1);
  const std::uint64_t b = jitter_seed(7, 2);
  EXPECT_NE(a, b);
  EXPECT_GT(a ^ b, 0xFFFFull);  // differ in more than the low bits
}

// --- in-process loopback end to end --------------------------------------

struct DaemonHarness {
  explicit DaemonHarness(NodeConfig config = {})
      : daemon(config), server([this] { daemon.run(); }) {}
  ~DaemonHarness() {
    daemon.stop();
    if (server.joinable()) server.join();
  }
  Daemon daemon;
  std::thread server;
};

std::string admin_request(std::uint16_t port, const std::string& command) {
  Fd fd = connect_tcp("127.0.0.1", port);
  const std::string line = command + "\n";
  std::span<const std::uint8_t> remaining(
      reinterpret_cast<const std::uint8_t*>(line.data()), line.size());
  while (!remaining.empty()) {
    const IoResult r = write_some(fd.get(), remaining);
    if (r.status == IoStatus::closed) return {};
    remaining = remaining.subspan(r.n);
  }
  std::string reply;
  std::vector<std::uint8_t> buffer(16 * 1024);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    const IoResult r = read_some(fd.get(), buffer);
    if (r.status == IoStatus::closed) break;
    if (r.status == IoStatus::would_block) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    reply.append(reinterpret_cast<const char*>(buffer.data()), r.n);
  }
  return reply;
}

TEST(NodeDaemon, LoopbackReplayMinesRulesAndRoutesHits) {
  NodeConfig config;
  config.min_support = 2;
  config.rebuild_every = 16;
  DaemonHarness harness(config);

  ReplayConfig load;
  load.port = harness.daemon.port();
  load.connections = 4;
  load.pairs = 1500;
  load.hosts = 16;
  load.hit_lag = 8;
  load.rate = 20'000.0;  // paced so hits land after their queries
  load.drain_ms = 300;
  load.seed = 3;
  const ReplayStats replay = run_replay(load);

  // The relay worked end to end: hits were routed back along the reverse
  // path to the connection that issued the query...
  EXPECT_GT(replay.matched_hits, 0u);
  // ...and every relayed frame carried the rewritten header (the TTL/hops
  // regression, verified on real wire bytes).
  EXPECT_EQ(replay.ttl_violations, 0u);
  EXPECT_EQ(replay.malformed, 0u);

  // The replay's drain can end before the daemon has read every frame (seen
  // under TSan), so wait for both counts, with a deadline, before stopping.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (;;) {
    const NodeStats live = harness.daemon.stats();
    if (live.queries_in >= 1500 && live.hits_in >= 1500) break;
    if (std::chrono::steady_clock::now() >= deadline) break;  // asserted below
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  harness.daemon.stop();
  harness.server.join();
  const NodeStats& stats = harness.daemon.stats();
  EXPECT_EQ(stats.queries_in, 1500u);
  EXPECT_EQ(stats.hits_in, 1500u);
  // Observed pairs fed the miner, snapshots produced rules, and live
  // queries were routed by them — with hits to show for it.
  EXPECT_GT(stats.pairs_mined, 0u);
  EXPECT_GT(stats.snapshots, 0u);
  EXPECT_GT(stats.rule_routed, 0u);
  EXPECT_GT(stats.routed_hits, 0u);
  EXPECT_GT(stats.routed_hit_fraction(), 0.0);
}

TEST(NodeDaemon, AdminEndpointServesStatsMetricsHealth) {
  NodeConfig config;
  DaemonHarness harness(config);

  ReplayConfig load;
  load.port = harness.daemon.port();
  load.connections = 2;
  load.pairs = 50;
  load.hit_lag = 4;
  load.rate = 10'000.0;
  load.drain_ms = 100;
  const ReplayStats replay = run_replay(load);
  ASSERT_GT(replay.frames_received, 0u);

  EXPECT_EQ(admin_request(harness.daemon.admin_port(), "health"), "ok\n");

  const std::string stats =
      admin_request(harness.daemon.admin_port(), "stats");
  EXPECT_NE(stats.find("node.messages_in 100"), std::string::npos) << stats;
  EXPECT_NE(stats.find("node.routed_hit_fraction"), std::string::npos);
  EXPECT_NE(stats.find("end\n"), std::string::npos);

  const std::string metrics =
      admin_request(harness.daemon.admin_port(), "metrics");
  EXPECT_NE(metrics.find("aar.metrics.v1"), std::string::npos);

  const std::string unknown =
      admin_request(harness.daemon.admin_port(), "frobnicate");
  EXPECT_NE(unknown.find("err unknown command"), std::string::npos);
}

TEST(NodeDaemon, AdminShutdownStopsTheLoop) {
  DaemonHarness harness;
  EXPECT_EQ(admin_request(harness.daemon.admin_port(), "shutdown"), "ok\n");
  harness.server.join();  // run() must return on its own
  EXPECT_GE(harness.daemon.stats().admin_requests, 1u);
}

TEST(NodeDaemon, SendStallLadderDisconnectsDeadPeer) {
  NodeConfig config;
  config.retries = 2;
  config.backoff_ms = 5;
  // Generous stall budget so the ladder dies by rung exhaustion, not the
  // wall clock: under TSan the shard can spend > budget relaying the 16 MiB
  // backlog before the first retry timer ever fires, which would jump
  // straight to send_timeouts with send_retries still 0.
  config.send_timeout_ms = 60'000;
  config.send_buffer = 4096;  // shrink the kernel's slack
  DaemonHarness harness(config);

  // Peer A sends large queries; peer B never reads its socket, so the
  // daemon's relays to B stall, the ladder retries, and B is declared dead.
  Fd sender = connect_tcp("127.0.0.1", harness.daemon.port());
  Fd dead = connect_tcp("127.0.0.1", harness.daemon.port());

  const std::string big(32 * 1024, 'q');
  std::vector<std::uint8_t> frame;
  for (std::uint64_t i = 0; i < 512; ++i) {
    frame = gnutella::serialize(
        gnutella::make_query(gnutella::make_wire_guid(i + 1), 4, 0, big));
    std::span<const std::uint8_t> remaining(frame.data(), frame.size());
    bool alive = true;
    while (!remaining.empty() && alive) {
      const IoResult r = write_some(sender.get(), remaining);
      switch (r.status) {
        case IoStatus::closed:
          alive = false;
          break;
        case IoStatus::would_block:
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          break;
        case IoStatus::ok:
          remaining = remaining.subspan(r.n);
          break;
      }
    }
  }

  // Wait for the ladder to walk its rungs and give up on B.  The budget is
  // generous: a cold first run under ASan on one core can take several
  // seconds before the stall clock even starts.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (std::chrono::steady_clock::now() < deadline) {
    const std::string stats =
        admin_request(harness.daemon.admin_port(), "stats");
    if (stats.find("node.send_timeouts 0\n") == std::string::npos) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }

  harness.daemon.stop();
  harness.server.join();
  const NodeStats& stats = harness.daemon.stats();
  EXPECT_GE(stats.send_retries, 1u);
  EXPECT_GE(stats.send_timeouts, 1u);
  EXPECT_GE(stats.disconnects, 1u);
}

// --- loopback-only default bind ------------------------------------------

TEST(NodeDaemon, DefaultConfigurationRefusesNonLoopbackBind) {
  NodeConfig config;
  config.bind_addr = "0.0.0.0";  // no allow_nonloopback opt-in
  try {
    Daemon daemon(config);
    FAIL() << "constructing a non-loopback daemon without the opt-in must "
              "throw";
  } catch (const std::invalid_argument& error) {
    // The refusal must name the flag that opts in.
    EXPECT_NE(std::string(error.what()).find("--bind"), std::string::npos)
        << error.what();
  }
}

TEST(NodeDaemon, ExplicitOptInAllowsNonLoopbackBind) {
  NodeConfig config;
  config.bind_addr = "0.0.0.0";
  config.allow_nonloopback = true;
  EXPECT_NO_THROW({ Daemon daemon(config); });
}

// --- shard-count invariance (lockstep driver) ----------------------------

/// connect_tcp returns when the kernel completes the handshake, which is
/// before the control thread accepts and registers the peer; a frame sent
/// then could flood to fewer targets than the settled roster.  Wait for
/// every peer to be accepted (the roster add happens-before the accepted
/// bump) so relay decisions see the same peer list on every run.
void await_accepted(const Daemon& daemon, std::size_t peers) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (daemon.stats().accepted < peers) {
    if (std::chrono::steady_clock::now() >= deadline) {
      ADD_FAILURE() << "peers never accepted";
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

/// Drives a daemon frame by frame over real loopback sockets, waiting for
/// each frame to be fully processed (Daemon::messages_processed) before
/// sending the next — the in-process analogue of `aar_node replay
/// --lockstep 1`.  Serializing the processing order makes stats and mined
/// rule bytes comparable across shard counts.
struct LockstepDriver {
  explicit LockstepDriver(Daemon& node, std::size_t connections)
      : daemon(node) {
    for (std::size_t i = 0; i < connections; ++i) {
      conns.push_back(connect_tcp("127.0.0.1", daemon.port()));
    }
    await_accepted(daemon, connections);
  }

  void send(std::size_t conn, const std::vector<std::uint8_t>& bytes) {
    const std::uint64_t target = daemon.messages_processed() + 1;
    std::span<const std::uint8_t> remaining(bytes.data(), bytes.size());
    while (!remaining.empty()) {
      const IoResult r = write_some(conns[conn].get(), remaining);
      ASSERT_NE(r.status, IoStatus::closed);
      if (r.status == IoStatus::would_block) {
        drain();
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        continue;
      }
      remaining = remaining.subspan(r.n);
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (daemon.messages_processed() < target) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "frame never processed";
      drain();
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }

  /// Discard whatever the daemon relayed back so its sends never stall.
  void drain() {
    std::vector<std::uint8_t> buffer(16 * 1024);
    for (Fd& fd : conns) {
      if (!fd.valid()) continue;
      for (;;) {
        const IoResult r = read_some(fd.get(), buffer);
        if (r.status != IoStatus::ok || r.n == 0) break;
      }
    }
  }

  Daemon& daemon;
  std::vector<Fd> conns;
};

/// The synthetic association workload: host h's queries arrive from conn
/// h % C and its hits always arrive through conn (h % C + 1) % C, so the
/// miner has stable (query key -> replying neighbor) structure to find.
void drive_association_workload(LockstepDriver& driver, std::size_t pairs,
                                std::uint32_t hosts, std::size_t conns,
                                std::size_t lag) {
  std::size_t next_hit = 0;
  const auto send_query = [&](std::size_t i) {
    const std::uint32_t h = static_cast<std::uint32_t>(i) % hosts;
    char search[16];
    std::snprintf(search, sizeof search, "q%u", h);
    driver.send(h % conns,
                gnutella::serialize(gnutella::make_query(
                    gnutella::make_wire_guid(1000 + i), 4, 0, search)));
  };
  const auto send_hit = [&](std::size_t i) {
    const std::uint32_t h = static_cast<std::uint32_t>(i) % hosts;
    char file[16];
    std::snprintf(file, sizeof file, "f%u", h);
    driver.send((h % conns + 1) % conns,
                gnutella::serialize(gnutella::make_query_hit(
                    gnutella::make_wire_guid(1000 + i), 4,
                    gnutella::make_wire_guid(h),
                    {gnutella::HitResult{.file_index = h,
                                         .file_size = 1,
                                         .file_name = file}})));
  };
  for (std::size_t i = 0; i < pairs; ++i) {
    send_query(i);
    while (next_hit + lag <= i) send_hit(next_hit++);
  }
  while (next_hit < pairs) send_hit(next_hit++);
}

std::string describe(const NodeStats& stats) {
  std::ostringstream out;
  out << stats.accepted << ' ' << stats.disconnects << ' ' << stats.bytes_in
      << ' ' << stats.bytes_out << ' ' << stats.messages_in << ' '
      << stats.malformed_frames << ' ' << stats.queries_in << ' '
      << stats.hits_in << ' ' << stats.pings_in << ' ' << stats.dropped << ' '
      << stats.queries_relayed << ' ' << stats.hits_relayed << ' '
      << stats.rule_routed << ' ' << stats.flooded << ' ' << stats.routed_hits
      << ' ' << stats.pairs_mined << ' ' << stats.snapshots << ' '
      << stats.send_retries << ' ' << stats.send_timeouts << ' '
      << stats.degraded_floods;
  return out.str();
}

/// Wait until the aggregated stats stop moving (trailing cross-shard relay
/// deliveries land asynchronously even after every frame is processed).
std::string settled_stats(Daemon& daemon) {
  std::string last = describe(daemon.stats());
  int stable = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    std::string now = describe(daemon.stats());
    if (now == last) {
      // Three quiet reads in a row: trailing deliveries can straggle when
      // the host is oversubscribed (ctest -j on one core).
      if (++stable >= 3) return now;
    } else {
      stable = 0;
      last = std::move(now);
    }
  }
  return last;
}

TEST(NodeDaemon, StatsAndRuleBytesAreInvariantUnderShardCount) {
  std::string reference_stats;
  std::string reference_rules;
  for (const std::size_t threads : {1u, 2u, 4u}) {
    NodeConfig config;
    config.threads = threads;
    config.min_support = 2;
    config.rebuild_every = 16;
    DaemonHarness harness(config);
    LockstepDriver driver(harness.daemon, 4);
    drive_association_workload(driver, 240, 8, 4, 8);

    const std::string stats = settled_stats(harness.daemon);
    // Capture the published rule bytes while the connections are still
    // open: closing them purges the departed peers from the rule set.
    const std::string rules = harness.daemon.rules_text();
    EXPECT_GT(harness.daemon.stats().rule_routed, 0u) << "threads=" << threads;
    EXPECT_GT(harness.daemon.stats().snapshots, 0u) << "threads=" << threads;
    if (threads == 1) {
      reference_stats = stats;
      reference_rules = rules;
      EXPECT_NE(rules.find('\n'), std::string::npos) << "empty rule set";
    } else {
      EXPECT_EQ(stats, reference_stats) << "threads=" << threads;
      EXPECT_EQ(rules, reference_rules) << "threads=" << threads;
    }
  }
}

// --- disconnect purge across shards --------------------------------------

TEST(NodeDaemon, DisconnectPurgesDeadPeersFromPublishedRulesAcrossShards) {
  NodeConfig config;
  config.threads = 2;
  config.min_support = 2;
  config.rebuild_every = 16;
  DaemonHarness harness(config);
  // Accept order pins ids 1..4; shard = (id-1) % 2, so ids 3 and 4 sit on
  // different shards.
  LockstepDriver driver(harness.daemon, 4);
  drive_association_workload(driver, 160, 8, 4, 8);
  (void)settled_stats(harness.daemon);

  const auto published = [&] {
    std::istringstream in(harness.daemon.rules_text());
    return core::RuleSet::load(in);
  };
  // The daemon mines neighbor-to-neighbor associations: queries arriving
  // from neighbor A are answered through neighbor B.
  const auto routes_at = [](const core::RuleSet& rules, NeighborId antecedent,
                            NeighborId consequent) {
    const auto targets = rules.top_k(antecedent, 4);
    return std::find(targets.begin(), targets.end(), consequent) !=
           targets.end();
  };

  // Hosts with h % 4 == 1 query via neighbor 2 and are answered via
  // neighbor 3 (shard 0); h % 4 == 2 query via neighbor 3, answered via
  // neighbor 4 (shard 1).  Both rules must be live before the kills.
  const core::RuleSet before = published();
  ASSERT_TRUE(routes_at(before, 2, 3)) << "workload mined no rule 2 -> 3";
  ASSERT_TRUE(routes_at(before, 3, 4)) << "workload mined no rule 3 -> 4";

  // Kill both hit-carrying connections — one per shard.
  driver.conns[2].reset();
  driver.conns[3].reset();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (harness.daemon.stats().disconnects < 2) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "daemon never noticed the disconnects";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // Each close purges the departed peer and republishes: the next snapshot
  // a shard routes against cannot name either dead neighbor.  The stat
  // moves before the purge republishes, so poll the published rules.
  const auto purge_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  core::RuleSet after = published();
  while ((routes_at(after, 2, 3) || routes_at(after, 3, 4)) &&
         std::chrono::steady_clock::now() < purge_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    after = published();
  }
  EXPECT_FALSE(routes_at(after, 2, 3)) << "purge left a rule at dead peer 3";
  EXPECT_FALSE(routes_at(after, 3, 4)) << "purge left a rule at dead peer 4";
}

// --- live mining against the offline miner -------------------------------

/// The differential gate for live mining: at every rebuild boundary the
/// daemon's published rule bytes must equal RuleSet::build over the newest
/// `window` pairs among live neighbours, in capture order.  The window is
/// smaller than the pair count, so merges evict; one neighbour disconnects
/// at a boundary partway through, so a purge thins the window, which then
/// refills from newer pairs only.
TEST(NodeMining, PublishedRulesMatchTheOfflineMiner) {
  constexpr std::size_t kConns = 5;
  constexpr std::size_t kPairs = 160;
  constexpr std::size_t kDisconnectAt = 80;
  for (const std::size_t threads : {1u, 4u}) {
    NodeConfig config;
    config.threads = threads;
    config.min_support = 2;
    config.rebuild_every = 16;
    config.window = 48;
    DaemonHarness harness(config);
    LockstepDriver driver(harness.daemon, kConns);

    std::deque<trace::QueryReplyPair> window;  // the offline miner's model
    const auto expected = [&] {
      const std::vector<trace::QueryReplyPair> pairs(window.begin(),
                                                     window.end());
      std::ostringstream out;
      core::RuleSet::build(pairs, config.min_support).save(out);
      return out.str();
    };
    util::Rng rng(41);
    std::size_t live = kConns;  // conns 0..live-1 are connected
    for (std::size_t i = 0; i < kPairs; ++i) {
      // Neighbour a's queries are mostly answered through a + 1, now and
      // then through a + 2: strong rules plus some the support prunes.
      const std::size_t a = rng.below(live);
      const std::size_t b = (a + 1 + (rng.below(4) == 0 ? 1 : 0)) % live;
      const gnutella::WireGuid guid = gnutella::make_wire_guid(5000 + i);
      driver.send(a, gnutella::serialize(
                         gnutella::make_query(guid, 4, 0, "mining pin")));
      driver.send(b, gnutella::serialize(gnutella::make_query_hit(
                         guid, 4, gnutella::make_wire_guid(7),
                         {gnutella::HitResult{.file_index = 1,
                                              .file_size = 1,
                                              .file_name = "f"}})));
      // Neighbour ids are 1-based in accept order.
      window.push_back(trace::QueryReplyPair{
          .time = static_cast<double>(i),
          .guid = gnutella::fold_guid(guid),
          .source_host = static_cast<trace::HostId>(a + 1),
          .replying_neighbor = static_cast<trace::HostId>(b + 1),
      });
      while (window.size() > config.window) window.pop_front();

      if ((i + 1) % config.rebuild_every != 0) continue;
      ASSERT_EQ(harness.daemon.rules_text(), expected())
          << "threads=" << threads << " pairs=" << i + 1;
      if (i + 1 != kDisconnectAt) continue;

      // The last neighbour leaves at this boundary: its purge republishes
      // the window without its pairs.
      const std::uint64_t snapshots = harness.daemon.stats().snapshots;
      driver.conns[kConns - 1].reset();
      --live;
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (harness.daemon.stats().disconnects < 1 ||
             harness.daemon.stats().snapshots == snapshots) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << "the disconnect was never purged";
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      std::erase_if(window, [](const trace::QueryReplyPair& pair) {
        return pair.source_host == kConns || pair.replying_neighbor == kConns;
      });
      ASSERT_EQ(harness.daemon.rules_text(), expected())
          << "threads=" << threads << " after the purge";
    }
    EXPECT_EQ(harness.daemon.stats().pairs_mined, kPairs);
    EXPECT_NE(expected().find('\n'), expected().rfind('\n'))
        << "the pin compares empty rule sets";
  }
}

// --- MiningHub: a disconnect's purge is final ----------------------------

trace::QueryReplyPair hub_pair(std::uint64_t time, NeighborId source,
                               NeighborId replier) {
  return {.time = static_cast<double>(time),
          .guid = time,
          .source_host = source,
          .replying_neighbor = replier};
}

bool names(const std::vector<trace::QueryReplyPair>& window, NeighborId id) {
  return std::any_of(window.begin(), window.end(), [id](const auto& pair) {
    return pair.source_host == id || pair.replying_neighbor == id;
  });
}

/// Shard::close_connection's order: flag, leave the roster, purge.
void depart(PeerDirectory& directory, MiningHub& hub,
            const std::shared_ptr<Peer>& peer) {
  peer->departed.store(true, std::memory_order_release);
  directory.remove(peer->id);
  hub.purge(peer->id);
}

TEST(NodeMiningHub, StaleRosterDoesNotBringBackAPurgedPeer) {
  PeerDirectory directory;
  std::vector<std::shared_ptr<Peer>> peers;
  for (NeighborId id = 1; id <= 3; ++id) peers.push_back(directory.add(id, 0));
  MiningHub hub({.window = 64, .min_support = 1}, 4, 2);
  std::vector<ShardWindow> windows(2);

  windows[0].append(hub_pair(1, 1, 3));
  windows[1].append(hub_pair(2, 2, 3));
  hub.merge(windows, *directory.list());
  ASSERT_TRUE(names(hub.window_pairs(), 3));

  // A merging shard fetched the roster while peer 3 was still in it; the
  // peer departs (and is purged) before the merge takes the hub lock, with
  // a hit answered through it still pending.
  const std::shared_ptr<const PeerList> stale = directory.list();
  windows[0].append(hub_pair(3, 1, 3));
  windows[1].append(hub_pair(4, 1, 2));
  depart(directory, hub, peers[2]);
  hub.merge(windows, *stale);

  const std::vector<trace::QueryReplyPair> window = hub.window_pairs();
  EXPECT_FALSE(names(window, 3)) << "a stale roster re-added a purged peer";
  ASSERT_EQ(window.size(), 1u);
  EXPECT_EQ(window.front(), hub_pair(4, 1, 2));
  EXPECT_EQ(hub.routing()->rules.top_k(1, 4), std::vector<trace::HostId>{2});
}

TEST(NodeMiningHub, ConcurrentAppendsMergesAndPurgesLeaveNoDepartedPeer) {
  constexpr NeighborId kPeers = 16;
  constexpr std::size_t kShards = 4;
  constexpr std::size_t kPairsPerShard = 4'000;
  PeerDirectory directory;
  std::vector<std::shared_ptr<Peer>> peers;
  for (NeighborId id = 1; id <= kPeers; ++id) {
    peers.push_back(directory.add(id, static_cast<std::uint32_t>(id % kShards)));
  }
  MiningHub hub({.window = 256, .min_support = 1}, 32, kShards);
  std::vector<ShardWindow> windows(kShards);
  std::atomic<std::uint64_t> clock{0};

  std::vector<std::thread> threads;
  for (std::size_t shard = 0; shard < kShards; ++shard) {
    threads.emplace_back([&, shard] {
      util::Rng rng(shard + 1);
      for (std::size_t i = 0; i < kPairsPerShard; ++i) {
        // Pairs keep naming every peer, departed or not: hits for a
        // departed peer's queries are still mined.
        const auto source = static_cast<NeighborId>(1 + rng.below(kPeers));
        const auto replier = static_cast<NeighborId>(1 + rng.below(kPeers));
        windows[shard].append(hub_pair(clock.fetch_add(1) + 1, source, replier));
        if (hub.note_pair()) {
          const std::shared_ptr<const PeerList> live = directory.list();
          std::this_thread::yield();  // widen the stale-roster window
          hub.merge(windows, *live);
        }
      }
    });
  }
  // Half the peers leave while the shards mine.
  threads.emplace_back([&] {
    for (NeighborId id = kPeers / 2 + 1; id <= kPeers; ++id) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      depart(directory, hub, peers[id - 1]);
    }
  });
  for (std::thread& thread : threads) thread.join();
  hub.merge(windows, *directory.list());

  const std::vector<trace::QueryReplyPair> window = hub.window_pairs();
  EXPECT_FALSE(window.empty());
  EXPECT_LE(window.size(), 256u);
  for (NeighborId id = kPeers / 2 + 1; id <= kPeers; ++id) {
    EXPECT_FALSE(names(window, id)) << "departed peer " << id;
    EXPECT_TRUE(hub.routing()->rules.top_k(id, kPeers).empty()) << id;
  }
  std::ostringstream expected;
  core::RuleSet::build(window, 1).save(expected);
  std::ostringstream published;
  hub.routing()->rules.save(published);
  EXPECT_EQ(published.str(), expected.str());
}

// --- Gnutella 0.4 relay rules (raw loopback clients) ---------------------

/// One frame as it arrived on a client socket: the raw bytes and their
/// decoding.
struct Frame {
  std::vector<std::uint8_t> bytes;
  gnutella::Message message;
};

/// A raw (non-peered) Gnutella client: writes whole frames and reads the
/// daemon's relays back one frame at a time.
struct RawClient {
  void send(std::span<const std::uint8_t> bytes) {
    while (!bytes.empty()) {
      const IoResult r = write_some(fd.get(), bytes);
      ASSERT_NE(r.status, IoStatus::closed);
      if (r.status == IoStatus::would_block) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        continue;
      }
      bytes = bytes.subspan(r.n);
    }
  }

  /// The next frame the daemon relayed here; fails the test after a 10 s
  /// wait (a relay the rules call for never arrived).
  Frame next() {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    std::vector<std::uint8_t> chunk(4096);
    for (;;) {
      const gnutella::ParseResult parsed = gnutella::parse(pending);
      if (parsed.ok()) {
        const auto end =
            pending.begin() + static_cast<std::ptrdiff_t>(parsed.consumed);
        Frame frame{std::vector<std::uint8_t>(pending.begin(), end),
                    parsed.message};
        pending.erase(pending.begin(), end);
        return frame;
      }
      if (parsed.error != gnutella::ParseError::kTruncatedHeader &&
          parsed.error != gnutella::ParseError::kTruncatedPayload) {
        ADD_FAILURE() << "malformed relay: " << to_string(parsed.error);
        return {};
      }
      if (std::chrono::steady_clock::now() >= deadline) {
        ADD_FAILURE() << "no relay arrived";
        return {};
      }
      const IoResult r = read_some(fd.get(), chunk);
      if (r.status == IoStatus::closed) {
        ADD_FAILURE() << "daemon closed the connection";
        return {};
      }
      if (r.status == IoStatus::ok) {
        pending.insert(pending.end(), chunk.begin(),
                       chunk.begin() + static_cast<std::ptrdiff_t>(r.n));
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }
  }

  Fd fd;
  std::vector<std::uint8_t> pending;
};

/// A one-shard daemon and `clients` raw clients.  Every frame is sent in
/// lockstep (the next waits until the daemon has fully processed the last),
/// and one shard writes each connection's relays in processing order, so a
/// frame read at a client proves that nothing the client was not sent came
/// before it.  The last client is the marker source: a fresh query it
/// floods is the next frame every other client reads unless an earlier
/// frame was (wrongly) relayed to that client first.
struct RelayRig {
  explicit RelayRig(std::size_t count, NodeConfig config = {})
      : harness(config) {
    for (std::size_t i = 0; i < count; ++i) {
      clients.push_back(
          RawClient{connect_tcp("127.0.0.1", harness.daemon.port()), {}});
    }
    await_accepted(harness.daemon, count);
  }

  void send(std::size_t from, const gnutella::Message& message) {
    send_bytes(from, gnutella::serialize(message));
  }

  void send_bytes(std::size_t from, const std::vector<std::uint8_t>& bytes) {
    const std::uint64_t target = harness.daemon.messages_processed() + 1;
    clients[from].send(bytes);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (harness.daemon.messages_processed() < target) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "frame never processed";
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }

  /// Flood a fresh marker query from the last client and read it at each
  /// of `observers`: it must be the next frame each of them sees.
  void expect_marker_next(std::initializer_list<std::size_t> observers) {
    const gnutella::WireGuid guid = gnutella::make_wire_guid(++markers);
    send(clients.size() - 1, gnutella::make_query(guid, 4, 0, "marker"));
    for (const std::size_t at : observers) {
      const Frame frame = clients[at].next();
      EXPECT_EQ(frame.message.header.guid, guid)
          << "client " << at << " was relayed a frame before the marker";
    }
  }

  DaemonHarness harness;
  std::vector<RawClient> clients;
  std::uint64_t markers = 1'000'000;
};

gnutella::Message query_at(std::uint64_t guid, std::uint8_t ttl,
                           std::uint8_t hops = 0) {
  gnutella::Message query = gnutella::make_query(
      gnutella::make_wire_guid(guid), ttl, 0, "relay rules");
  query.header.hops = hops;
  return query;
}

gnutella::Message hit_at(std::uint64_t guid, std::uint8_t ttl,
                         std::uint8_t hops = 0) {
  gnutella::Message hit = gnutella::make_query_hit(
      gnutella::make_wire_guid(guid), ttl, gnutella::make_wire_guid(77),
      {gnutella::HitResult{.file_index = 9, .file_size = 4096,
                           .file_name = "song.mp3"}});
  hit.header.hops = hops;
  return hit;
}

TEST(NodeRelayRules, DuplicateGuidQueryIsNotRelayed) {
  RelayRig rig(4);
  rig.send(0, query_at(1, 4));
  for (const std::size_t at : {1u, 2u, 3u}) {
    EXPECT_EQ(rig.clients[at].next().message.header.guid,
              gnutella::make_wire_guid(1));
  }
  const std::uint64_t dropped = rig.harness.daemon.stats().dropped;
  rig.send(1, query_at(1, 4));  // same GUID, another neighbour
  EXPECT_EQ(rig.harness.daemon.stats().dropped, dropped + 1);
  rig.expect_marker_next({0, 1, 2});
}

TEST(NodeRelayRules, QueryAtTtlOneIsNotRelayedButItsHitIs) {
  RelayRig rig(4);
  const std::uint64_t dropped = rig.harness.daemon.stats().dropped;
  rig.send(0, query_at(2, 1));
  EXPECT_EQ(rig.harness.daemon.stats().dropped, dropped + 1);
  rig.expect_marker_next({0, 1, 2});

  // The expired query's route was still recorded: its hit goes back to the
  // origin, but the pair never reaches the miner.
  const std::uint64_t mined = rig.harness.daemon.stats().pairs_mined;
  rig.send(1, hit_at(2, 4));
  const Frame hit = rig.clients[0].next();
  EXPECT_EQ(hit.message.header.type, gnutella::MessageType::kQueryHit);
  EXPECT_EQ(hit.message.header.guid, gnutella::make_wire_guid(2));
  EXPECT_EQ(rig.harness.daemon.stats().pairs_mined, mined);
  rig.expect_marker_next({0, 1, 2});
}

/// The relayed frame is the sent one with TTL−1 and hops+1: GUID, type,
/// payload length and every payload byte unchanged.
void expect_relayed(const std::vector<std::uint8_t>& sent, const Frame& got) {
  ASSERT_EQ(got.bytes.size(), sent.size());
  EXPECT_EQ(got.message.header.ttl, sent[17] - 1);
  EXPECT_EQ(got.message.header.hops, sent[18] + 1);
  EXPECT_TRUE(std::equal(sent.begin(), sent.begin() + 17, got.bytes.begin()));
  EXPECT_TRUE(
      std::equal(sent.begin() + 19, sent.end(), got.bytes.begin() + 19));
}

TEST(NodeRelayRules, RelayedFramesSpendOneTtlAndAddOneHop) {
  RelayRig rig(3);
  const auto query = gnutella::serialize(query_at(3, 5, 1));
  rig.send_bytes(0, query);
  expect_relayed(query, rig.clients[1].next());
  expect_relayed(query, rig.clients[2].next());

  const auto hit = gnutella::serialize(hit_at(3, 6, 2));
  rig.send_bytes(1, hit);
  expect_relayed(hit, rig.clients[0].next());

  const auto ping =
      gnutella::serialize(gnutella::make_ping(gnutella::make_wire_guid(4), 3));
  rig.send_bytes(2, ping);
  expect_relayed(ping, rig.clients[0].next());
  expect_relayed(ping, rig.clients[1].next());
}

TEST(NodeRelayRules, HitForUnknownGuidIsDropped) {
  RelayRig rig(4);
  const std::uint64_t dropped = rig.harness.daemon.stats().dropped;
  rig.send(1, hit_at(5, 4));
  EXPECT_EQ(rig.harness.daemon.stats().dropped, dropped + 1);
  rig.expect_marker_next({0, 1, 2});
}

TEST(NodeRelayRules, HitIsRelayedOnlyToItsQueryOrigin) {
  RelayRig rig(4);
  rig.send(0, query_at(6, 4));
  for (const std::size_t at : {1u, 2u, 3u}) {
    EXPECT_EQ(rig.clients[at].next().message.header.guid,
              gnutella::make_wire_guid(6));
  }
  rig.send(2, hit_at(6, 4));
  const Frame hit = rig.clients[0].next();
  EXPECT_EQ(hit.message.header.type, gnutella::MessageType::kQueryHit);
  EXPECT_EQ(hit.message.header.guid, gnutella::make_wire_guid(6));
  rig.expect_marker_next({0, 1, 2});
}

TEST(NodeRelayRules, FloodLeavesOutDisconnectedNeighbour) {
  RelayRig rig(4);
  std::uint64_t relayed = rig.harness.daemon.stats().queries_relayed;
  rig.send(0, query_at(7, 4));
  for (const std::size_t at : {1u, 2u, 3u}) {
    EXPECT_EQ(rig.clients[at].next().message.header.guid,
              gnutella::make_wire_guid(7));
  }
  EXPECT_EQ(rig.harness.daemon.stats().queries_relayed, relayed + 3);

  rig.clients[2].fd.reset();  // every relay it was sent has been read
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (rig.harness.daemon.stats().disconnects < 1) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "daemon never noticed the disconnect";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  relayed = rig.harness.daemon.stats().queries_relayed;
  rig.send(0, query_at(8, 4));
  for (const std::size_t at : {1u, 3u}) {
    EXPECT_EQ(rig.clients[at].next().message.header.guid,
              gnutella::make_wire_guid(8));
  }
  EXPECT_EQ(rig.harness.daemon.stats().queries_relayed, relayed + 2);
}

TEST(NodeRelayRules,
     RuleRoutedQueryGoesOnlyToItsConsequentThenFloodsWhenItStalls) {
  // Every mined pair republishes the rules, and one pair makes a rule.  C's
  // stall must outlast the test: a tiny send buffer fills its socket, and
  // the ladder's first retry and its timeout both lie a minute away.
  NodeConfig config;
  config.rebuild_every = 1;
  config.min_support = 1;
  config.send_buffer = 4096;
  config.send_timeout_ms = 60'000;
  config.backoff_ms = 60'000;
  constexpr std::size_t kA = 0;
  constexpr std::size_t kB = 1;
  constexpr std::size_t kC = 2;  // also the rig's marker source
  RelayRig rig(3, config);
  const auto stats = [&rig] { return NodeStats(rig.harness.daemon.stats()); };

  // No rule yet: A's query floods, and C's hit for it publishes {A} -> {C}.
  rig.send(kA, query_at(10, 4));
  for (const std::size_t at : {kB, kC}) {
    EXPECT_EQ(rig.clients[at].next().message.header.guid,
              gnutella::make_wire_guid(10));
  }
  rig.send(kC, hit_at(10, 4));
  EXPECT_EQ(rig.clients[kA].next().message.header.guid,
            gnutella::make_wire_guid(10));

  // A's next query goes to C alone; the marker is the next frame B reads.
  NodeStats before = stats();
  rig.send(kA, query_at(11, 4));
  EXPECT_EQ(rig.clients[kC].next().message.header.guid,
            gnutella::make_wire_guid(11));
  NodeStats after = stats();
  EXPECT_EQ(after.rule_routed, before.rule_routed + 1);
  EXPECT_EQ(after.flooded, before.flooded);
  rig.expect_marker_next({kA, kB});

  // C never reads again.  32 KiB queries rule-routed to it fill its socket
  // until a relay is not written out in full (bytes_out grows by less than
  // the frame), which leaves C stalled.
  const std::string big(32 * 1024, 'q');
  bool stalled = false;
  for (std::uint64_t guid = 100; guid < 612 && !stalled; ++guid) {
    const auto frame = gnutella::serialize(
        gnutella::make_query(gnutella::make_wire_guid(guid), 4, 0, big));
    before = stats();
    rig.send_bytes(kA, frame);
    after = stats();
    ASSERT_EQ(after.rule_routed, before.rule_routed + 1);
    stalled = after.bytes_out - before.bytes_out < frame.size();
  }
  ASSERT_TRUE(stalled) << "C's socket never filled";

  // The rule still names C, but C is stalled: A's next query floods, and
  // it is the first frame B has been sent since the marker.
  before = stats();
  rig.send(kA, query_at(12, 4));
  EXPECT_EQ(rig.clients[kB].next().message.header.guid,
            gnutella::make_wire_guid(12));
  after = stats();
  EXPECT_EQ(after.degraded_floods, before.degraded_floods + 1);
  EXPECT_EQ(after.flooded, before.flooded + 1);
  EXPECT_EQ(after.rule_routed, before.rule_routed);
}

// --- CLI flag validation (real binary) -----------------------------------

int run_cli(const std::string& args) {
  const std::string command =
      std::string(AAR_NODE_BINARY) + " " + args + " >/dev/null 2>&1";
  const int rc = std::system(command.c_str());
  return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

TEST(NodeCli, NoCommandPrintsUsage) { EXPECT_EQ(run_cli(""), 2); }

TEST(NodeCli, UnknownCommandPrintsUsage) {
  EXPECT_EQ(run_cli("dance"), 2);
}

TEST(NodeCli, UnknownFlagIsRejected) {
  EXPECT_EQ(run_cli("serve --bogus 1"), 2);
  EXPECT_EQ(run_cli("replay --port 1 --velocity 9"), 2);
}

TEST(NodeCli, FlagWithoutValueIsRejected) {
  EXPECT_EQ(run_cli("serve --port"), 2);
}

TEST(NodeCli, ReplayRequiresPort) { EXPECT_EQ(run_cli("replay"), 2); }

TEST(NodeCli, ServeThreadsMustBeAnIntegerInRange) {
  EXPECT_EQ(run_cli("serve --threads 0"), 2);
  EXPECT_EQ(run_cli("serve --threads 65"), 2);
  EXPECT_EQ(run_cli("serve --threads four"), 2);
  EXPECT_EQ(run_cli("serve --threads 4x"), 2);
  EXPECT_EQ(run_cli("serve --threads -1"), 2);
}

TEST(NodeCli, ServeBindRejectsMalformedAddress) {
  // A bad --bind is a runtime failure (listen_tcp refuses the address),
  // not a usage error.
  EXPECT_EQ(run_cli("serve --bind 256.1.1.1 --port 0 --admin-port 0"), 1);
  EXPECT_EQ(run_cli("serve --bind not-an-addr --port 0 --admin-port 0"), 1);
}

TEST(NodeCli, AdminFailsCleanlyWhenDaemonUnreachable) {
  // Port 1 is never bound in the test environment; connect must fail and
  // the CLI must report a runtime error, not a usage error.
  EXPECT_EQ(run_cli("admin --port 1 --command health"), 1);
}

TEST(NodeCli, ServePeerMustBeStrictHostPort) {
  // parse_host_port accepts only a dotted-quad IPv4 plus a port in
  // 1..65535; anything looser is a usage error before any socket opens.
  EXPECT_EQ(run_cli("serve --peer localhost:9"), 2);
  EXPECT_EQ(run_cli("serve --peer 127.0.0.1"), 2);
  EXPECT_EQ(run_cli("serve --peer 127.0.0.1:0"), 2);
  EXPECT_EQ(run_cli("serve --peer 127.0.0.1:99999"), 2);
  EXPECT_EQ(run_cli("serve --peer :9"), 2);
  EXPECT_EQ(run_cli("serve --peer 127.0.0.1:9x"), 2);
  // Repeatable flag: one bad address poisons the whole invocation even
  // when another --peer is well-formed.
  EXPECT_EQ(run_cli("serve --peer 127.0.0.1:9 --peer nohost"), 2);
}

TEST(NodeCli, ServeKeepaliveFlagsMustBeIntegersInRange) {
  EXPECT_EQ(run_cli("serve --ping-interval -1"), 2);
  EXPECT_EQ(run_cli("serve --ping-interval 3600001"), 2);
  EXPECT_EQ(run_cli("serve --ping-interval 2s"), 2);
  EXPECT_EQ(run_cli("serve --pong-budget 0"), 2);
  EXPECT_EQ(run_cli("serve --pong-budget 101"), 2);
  EXPECT_EQ(run_cli("serve --pong-budget three"), 2);
}

TEST(NodeCli, NumericFlagsMustBeWholeIntegersInRange) {
  // Ports lie in 0..65535; a partial parse ("300x"), a non-number or a
  // negative count is a usage error, never a silent 300, 0 or wrap.  The
  // unreachable daemon (--port 1) and the refused --bind make an accepted
  // value fail at runtime (exit 1) instead.
  EXPECT_EQ(run_cli("replay --port 70000"), 2);
  EXPECT_EQ(run_cli("replay --port -1"), 2);
  EXPECT_EQ(run_cli("replay --port 1 --hits-port 65536"), 2);
  EXPECT_EQ(run_cli("replay --port 1 --pairs 300x"), 2);
  EXPECT_EQ(run_cli("replay --port 1 --connections abc"), 2);
  EXPECT_EQ(run_cli("replay --port 1 --ttl 256"), 2);
  EXPECT_EQ(run_cli("admin --port 65536"), 2);
  EXPECT_EQ(run_cli("serve --bind 256.1.1.1 --window 300x"), 2);
  EXPECT_EQ(run_cli("serve --bind 256.1.1.1 --window abc"), 2);
  EXPECT_EQ(run_cli("serve --bind 256.1.1.1 --port 70000"), 2);
  EXPECT_EQ(run_cli("serve --bind 256.1.1.1 --admin-port 70000"), 2);
  EXPECT_EQ(run_cli("serve --bind 256.1.1.1 --checkpoint-ms 5s"), 2);
  // Mining knobs start at 1: zero would mean an unbounded window, a
  // zero-fan-out rule route, a miner that refuses to start, or a snapshot
  // republished after every pair.
  EXPECT_EQ(run_cli("serve --bind 256.1.1.1 --window 0"), 2);
  EXPECT_EQ(run_cli("serve --bind 256.1.1.1 --top-k 0"), 2);
  EXPECT_EQ(run_cli("serve --bind 256.1.1.1 --min-support 0"), 2);
  EXPECT_EQ(run_cli("serve --bind 256.1.1.1 --rebuild-every 0"), 2);
  // Well-formed values still get through to the runtime failure.
  EXPECT_EQ(run_cli("replay --port 1 --pairs 300"), 1);
  EXPECT_EQ(run_cli("serve --bind 256.1.1.1 --window 300 --port 0"), 1);
}

TEST(NodeCli, ReplayExpectHitsMustBeAPositiveInteger) {
  EXPECT_EQ(run_cli("replay --port 1 --expect-hits 0"), 2);
  EXPECT_EQ(run_cli("replay --port 1 --expect-hits -5"), 2);
  EXPECT_EQ(run_cli("replay --port 1 --expect-hits many"), 2);
}

// --- replay stats rendering ----------------------------------------------

TEST(NodeReplay, LatencyLinesRenderNotAvailableWithoutSamples) {
  // A run that matched nothing must not print 0.0ms percentiles — that
  // would read as an impossibly fast network instead of "no hit ever came
  // back" (the --expect-hits failure mode in cluster smoke tests).
  ReplayStats stats;
  const std::string text = to_text(stats);
  EXPECT_NE(text.find("replay.latency_samples 0\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("replay.latency_p50_ms n/a\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("replay.latency_p99_ms n/a\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("replay.latency_max_ms n/a\n"), std::string::npos)
      << text;

  stats.latency_samples = 3;
  stats.latency_p50_ms = 1.25;
  stats.latency_p99_ms = 2.5;
  stats.latency_max_ms = 4.0;
  const std::string with_samples = to_text(stats);
  EXPECT_EQ(with_samples.find(" n/a"), std::string::npos) << with_samples;
  EXPECT_NE(with_samples.find("replay.latency_samples 3\n"),
            std::string::npos)
      << with_samples;
  EXPECT_NE(with_samples.find("replay.latency_p50_ms 1.25"),
            std::string::npos)
      << with_samples;
}

}  // namespace
}  // namespace aar::node
