// aar_node --state-dir restart tests (docs/STORAGE.md "Node persistence"):
// the daemon's mined rule state must survive a shutdown/restart cycle.
//
//   * Warm restart — a daemon mines rules from wire traffic, checkpoints
//     its merged window at shutdown (the same code path SIGTERM takes:
//     the signal handler calls Daemon::stop() and run() checkpoints after
//     the shards quiesce), and a fresh daemon on the same --state-dir
//     republishes byte-identical rule bytes before seeing any traffic.
//     The wire connections stay OPEN across the shutdown: a disconnect
//     purges the departing peer's pairs by design, which would (correctly)
//     empty the checkpoint.
//   * Window across rebuilds — the restored window is the base the next
//     rebuilds add to: after a restart and two rebuilds the rules and the
//     next checkpoint hold the restored pairs plus the new ones.
//   * Archive — every mined pair is folded into the lsm store under
//     <state-dir>/archive; after shutdown the store is opened directly and
//     must hold exactly the per-(source, neighbor) pair counts the
//     workload produced.
//   * Cold restart — a daemon on a fresh state dir starts with empty
//     rules and re-learns from replayed traffic.
//   * Torn checkpoint — a corrupt window.aartr is a cold start, never an
//     abort.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/ruleset.hpp"
#include "gnutella/codec.hpp"
#include "lsm/store.hpp"
#include "node/daemon.hpp"
#include "node/net.hpp"
#include "store/reader.hpp"
#include "test_tmp.hpp"
#include "trace/record.hpp"

namespace aar::node {
namespace {

using aar::testing::ScopedTempDir;

/// RuleSet::save always emits its CSV header; actual rules mean >1 line.
bool has_rules(const std::string& text) {
  return std::count(text.begin(), text.end(), '\n') > 1;
}

NodeConfig state_config(const std::string& state_dir) {
  NodeConfig config;
  config.min_support = 2;
  config.rebuild_every = 16;
  config.window = 512;
  config.state_dir = state_dir;
  return config;
}

/// Daemon in a thread plus raw wire connections that outlive the daemon
/// object — keeping the sockets open across stop() is what preserves the
/// mined window (closing them would purge the peers' pairs).
struct RestartHarness {
  explicit RestartHarness(const NodeConfig& config)
      : daemon(std::make_unique<Daemon>(config)),
        server([this] { daemon->run(); }) {}
  ~RestartHarness() { shutdown(); }

  void connect(std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      conns.push_back(connect_tcp("127.0.0.1", daemon->port()));
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (daemon->stats().accepted < count) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "peers never accepted";
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  /// Lockstep send: wait until the daemon fully processed the frame, so
  /// pair mining (and merges) happen deterministically before the next.
  void send(std::size_t conn, const std::vector<std::uint8_t>& bytes) {
    const std::uint64_t target = daemon->messages_processed() + 1;
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
    while (daemon->messages_processed() < target) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "frame never processed";
      drain();
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }

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

  /// Stop + join: run() writes the final checkpoint after the shards
  /// quiesce, exactly as on SIGTERM.  Connections stay open.
  void shutdown() {
    if (daemon == nullptr) return;
    daemon->stop();
    if (server.joinable()) server.join();
    daemon.reset();
  }

  std::unique_ptr<Daemon> daemon;
  std::thread server;
  std::vector<Fd> conns;
};

/// The association workload of test_node.cpp: host h's queries arrive on
/// conn h % C, its hits on conn (h % C + 1) % C — stable structure for the
/// miner.  Returns the exact (source conn id, replying conn id) pair
/// counts the daemon should have archived.
std::map<std::pair<std::uint32_t, std::uint32_t>, std::int64_t>
drive_workload(RestartHarness& harness, std::size_t pairs,
               std::uint32_t hosts, std::size_t conns) {
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::int64_t> mined;
  for (std::size_t i = 0; i < pairs; ++i) {
    const std::uint32_t h = static_cast<std::uint32_t>(i) % hosts;
    char text[16];
    std::snprintf(text, sizeof text, "q%u", h);
    harness.send(h % conns,
                 gnutella::serialize(gnutella::make_query(
                     gnutella::make_wire_guid(1000 + i), 4, 0, text)));
    std::snprintf(text, sizeof text, "f%u", h);
    harness.send((h % conns + 1) % conns,
                 gnutella::serialize(gnutella::make_query_hit(
                     gnutella::make_wire_guid(1000 + i), 4,
                     gnutella::make_wire_guid(h),
                     {gnutella::HitResult{.file_index = h,
                                          .file_size = 1,
                                          .file_name = text}})));
    // Neighbor ids are 1-based in accept order.
    const auto source = static_cast<std::uint32_t>(h % conns + 1);
    const auto replier = static_cast<std::uint32_t>((h % conns + 1) % conns + 1);
    mined[{source, replier}] += 1;
  }
  return mined;
}

TEST(NodeRestart, WarmRestartRepublishesIdenticalRuleBytes) {
  ScopedTempDir tmp("aar_node_restart");
  const std::string state_dir = tmp.path("state");

  std::string rules_before;
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::int64_t> mined;
  std::uint64_t pairs_mined = 0;
  {
    RestartHarness harness(state_config(state_dir));
    harness.connect(4);
    mined = drive_workload(harness, 400, 16, 4);
    // Stop run() (the SIGTERM path) but keep the Daemon object around to
    // read its final state: the published rules and exact pair count.
    harness.daemon->stop();
    harness.server.join();
    rules_before = harness.daemon->rules_text();
    pairs_mined = harness.daemon->stats().pairs_mined;
    harness.daemon.reset();
  }
  ASSERT_GT(pairs_mined, 0u);
  ASSERT_TRUE(has_rules(rules_before))
      << "workload mined no rules; the restart comparison would be vacuous:\n"
      << rules_before;

  // Warm restart: the restored snapshot serves before any traffic.
  {
    RestartHarness harness(state_config(state_dir));
    EXPECT_EQ(harness.daemon->rules_text(), rules_before);
    EXPECT_GT(harness.daemon->stats().restored_pairs, 0u);
    harness.shutdown();
  }

  // The lsm archive holds the exact per-edge pair counts of the workload
  // (both daemon runs flushed on their way out; the second mined nothing).
  lsm::Store archive(state_dir + "/archive");
  std::int64_t total = 0;
  for (const auto& [edge, count] : mined) {
    EXPECT_EQ(archive.get_count(edge.first, edge.second), count)
        << "edge " << edge.first << "->" << edge.second;
    total += count;
  }
  EXPECT_EQ(static_cast<std::uint64_t>(total), pairs_mined);
}

TEST(NodeRestart, WarmRestartKeepsItsWindowAcrossTheNextRebuild) {
  ScopedTempDir tmp("aar_node_rebuild");
  const std::string state_dir = tmp.path("state");
  const auto checkpointed = [&] {
    return store::Reader(state_dir + "/window.aartr").read_all_pairs();
  };

  {
    RestartHarness harness(state_config(state_dir));
    harness.connect(4);
    drive_workload(harness, 96, 8, 4);  // six whole rebuilds
    harness.shutdown();  // connections still open: the checkpoint keeps all
  }
  const std::vector<trace::QueryReplyPair> restored = checkpointed();
  ASSERT_EQ(restored.size(), 96u);

  std::string rules;
  {
    RestartHarness harness(state_config(state_dir));
    ASSERT_EQ(harness.daemon->stats().restored_pairs, restored.size());
    harness.connect(2);
    drive_workload(harness, 32, 4, 2);  // two rebuilds (rebuild_every 16)
    rules = harness.daemon->rules_text();
    harness.shutdown();
  }
  const std::vector<trace::QueryReplyPair> window = checkpointed();
  ASSERT_EQ(window.size(), restored.size() + 32)
      << "a rebuild threw the restored window away";
  EXPECT_TRUE(std::equal(restored.begin(), restored.end(), window.begin()));
  EXPECT_LT(restored.back().time, window[restored.size()].time);

  std::ostringstream expected;
  core::RuleSet::build(window, 2).save(expected);
  EXPECT_EQ(rules, expected.str());
}

TEST(NodeRestart, ShutdownCheckpointKeepsPairsMinedSinceTheLastRebuild) {
  // 100 lockstep pairs at rebuild_every 16: six rebuilds merge 96 of them
  // and four wait in the shards' windows when the daemon stops.  The final
  // checkpoint must hold all 100, and a restart must restore all 100.
  ScopedTempDir tmp("aar_node_pending");
  const std::string state_dir = tmp.path("state");
  {
    RestartHarness harness(state_config(state_dir));
    harness.connect(4);
    drive_workload(harness, 100, 8, 4);
    harness.shutdown();  // connections still open: no purge
  }
  EXPECT_EQ(store::Reader(state_dir + "/window.aartr").read_all_pairs().size(),
            100u);
  RestartHarness harness(state_config(state_dir));
  EXPECT_EQ(harness.daemon->stats().restored_pairs, 100u);
  harness.shutdown();
}

TEST(NodeRestart, ColdRestartStartsEmptyAndRelearns) {
  ScopedTempDir tmp("aar_node_cold");

  // Fresh state dir: nothing restored, no rules.
  RestartHarness harness(state_config(tmp.path("fresh")));
  EXPECT_EQ(harness.daemon->stats().restored_pairs, 0u);
  EXPECT_FALSE(has_rules(harness.daemon->rules_text()));

  // ...and the daemon re-learns from live traffic.
  harness.connect(4);
  drive_workload(harness, 200, 8, 4);
  harness.daemon->stop();
  harness.server.join();
  EXPECT_GT(harness.daemon->stats().pairs_mined, 0u);
  EXPECT_TRUE(has_rules(harness.daemon->rules_text()));
  harness.daemon.reset();
}

TEST(NodeRestart, TornWindowCheckpointIsAColdStartNotAnAbort) {
  ScopedTempDir tmp("aar_node_torn");
  const std::string state_dir = tmp.path("state");
  std::filesystem::create_directories(state_dir);
  {
    std::ofstream out(state_dir + "/window.aartr", std::ios::binary);
    out << "aartracegarbage-not-a-valid-trailer";
  }
  RestartHarness harness(state_config(state_dir));  // must not throw
  EXPECT_EQ(harness.daemon->stats().restored_pairs, 0u);
  harness.shutdown();
}

TEST(NodeRestart, PeriodicCheckpointWritesWithoutShutdown) {
  ScopedTempDir tmp("aar_node_periodic");
  NodeConfig config = state_config(tmp.path("state"));
  config.checkpoint_ms = 50;

  RestartHarness harness(config);
  harness.connect(2);
  drive_workload(harness, 64, 8, 2);
  // The control loop checkpoints on its epoll cadence; wait for one.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (harness.daemon->stats().checkpoints == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "periodic checkpoint never fired";
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(std::filesystem::exists(tmp.path("state") + "/window.aartr"));
}

}  // namespace
}  // namespace aar::node
