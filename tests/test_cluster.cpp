// Multi-node cluster tests (docs/NODE.md "Peering"): three real aar_node
// processes ring-peered over loopback — queries replayed into node A,
// hits into node C, cross-process rule-routing asserted on all three via
// the admin endpoint; then C is frozen (SIGSTOP) and the survivors must
// declare the link dead through the missed-pong budget and purge C's
// consequents from their published rule sets.  A second, in-process suite
// pins the determinism regression: the same seed and lockstep workload
// against a 2-node pair twice produces identical stats and rule bytes on
// both nodes.
//
// The daemon mines pairs with the ingress *connection* as antecedent, so a
// closed load-generator socket purges its own rules.  Both tests therefore
// hold their ingress sockets open across the assertion window: the e2e
// drives its rule-building traffic from persistent raw sockets after the
// replay phase, and the determinism pair captures stats/rules before any
// teardown.

#include <gtest/gtest.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/ruleset.hpp"
#include "gnutella/codec.hpp"
#include "node/daemon.hpp"
#include "node/net.hpp"
#include "node/replay.hpp"

namespace aar::node {
namespace {

using namespace std::chrono_literals;
using Clock = std::chrono::steady_clock;

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
  const auto deadline = Clock::now() + 10s;
  while (Clock::now() < deadline) {
    const IoResult r = read_some(fd.get(), buffer);
    if (r.status == IoStatus::closed) break;
    if (r.status == IoStatus::would_block) {
      std::this_thread::sleep_for(1ms);
      continue;
    }
    reply.append(reinterpret_cast<const char*>(buffer.data()), r.n);
  }
  return reply;
}

/// Value of a "name value" line in an admin stats reply; 0 when absent.
std::uint64_t stat_value(const std::string& text, const std::string& name) {
  const std::string needle = name + " ";
  std::size_t pos = 0;
  while ((pos = text.find(needle, pos)) != std::string::npos) {
    if (pos == 0 || text[pos - 1] == '\n') {
      return std::strtoull(text.c_str() + pos + needle.size(), nullptr, 10);
    }
    pos += needle.size();
  }
  return 0;
}

std::size_t rule_count(const std::string& rules_text) {
  std::istringstream in(rules_text);
  return core::RuleSet::load(in).num_rules();
}

/// True when the serialized rule CSV ("antecedent,consequent,support")
/// names `id` as any rule's consequent.
bool has_consequent(const std::string& rules_text, std::uint64_t id) {
  std::istringstream in(rules_text);
  std::string line;
  std::getline(in, line);  // header
  std::string needle = ",";
  needle.append(std::to_string(id)).append(",");
  while (std::getline(in, line)) {
    if (line.find(needle) != std::string::npos) return true;
  }
  return false;
}

/// Blocking send of a whole frame on a raw test socket.
void send_all(Fd& fd, const std::vector<std::uint8_t>& bytes) {
  std::span<const std::uint8_t> remaining(bytes.data(), bytes.size());
  while (!remaining.empty()) {
    const IoResult r = write_some(fd.get(), remaining);
    ASSERT_NE(r.status, IoStatus::closed);
    if (r.status == IoStatus::would_block) {
      std::this_thread::sleep_for(100us);
      continue;
    }
    remaining = remaining.subspan(r.n);
  }
}

/// Discard everything the daemons relayed back so their sends never stall.
void drain_fds(std::vector<Fd>& fds) {
  std::vector<std::uint8_t> buffer(16 * 1024);
  for (Fd& fd : fds) {
    if (!fd.valid()) continue;
    for (;;) {
      const IoResult r = read_some(fd.get(), buffer);
      if (r.status != IoStatus::ok || r.n == 0) break;
    }
  }
}

/// One aar_node serve process, stdout piped back so the test can read the
/// ephemeral "listening P" / "admin P" banner.
class NodeProcess {
 public:
  explicit NodeProcess(std::vector<std::string> args) {
    int fds[2];
    if (::pipe(fds) != 0) return;
    pid_ = ::fork();
    if (pid_ < 0) return;
    if (pid_ == 0) {
      ::close(fds[0]);
      ::dup2(fds[1], STDOUT_FILENO);
      ::close(fds[1]);
      std::vector<char*> argv;
      std::string binary = AAR_NODE_BINARY;
      argv.push_back(binary.data());
      for (std::string& arg : args) argv.push_back(arg.data());
      argv.push_back(nullptr);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    ::close(fds[1]);
    out_ = fds[0];
    const std::string banner = read_until_ports();
    std::sscanf(banner.c_str(), "listening %hu\nadmin %hu", &port_, &admin_);
  }

  ~NodeProcess() { kill_now(); }

  void freeze() const { ::kill(pid_, SIGSTOP); }
  void kill_now() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
      pid_ = -1;
    }
    if (out_ >= 0) {
      ::close(out_);
      out_ = -1;
    }
  }
  /// Graceful stop: admin shutdown, then wait and require exit status 0.
  int shutdown() {
    EXPECT_EQ(admin_request(admin_, "shutdown"), "ok\n");
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] std::uint16_t admin() const { return admin_; }

 private:
  std::string read_until_ports() {
    std::string text;
    char byte = 0;
    const auto deadline = Clock::now() + 15s;
    while (Clock::now() < deadline) {
      pollfd waiter{.fd = out_, .events = POLLIN, .revents = 0};
      if (::poll(&waiter, 1, 100) <= 0) continue;
      const ssize_t n = ::read(out_, &byte, 1);
      if (n <= 0) break;
      text.push_back(byte);
      // Two complete lines: "listening P\nadmin P\n".
      if (byte == '\n' && text.find("admin ") != std::string::npos) break;
    }
    return text;
  }

  pid_t pid_ = -1;
  int out_ = -1;
  std::uint16_t port_ = 0;
  std::uint16_t admin_ = 0;
};

/// Poll an admin stat until `minimum` is reached or 20 s pass.
bool await_stat(std::uint16_t admin, const std::string& name,
                std::uint64_t minimum) {
  const auto deadline = Clock::now() + 20s;
  while (Clock::now() < deadline) {
    if (stat_value(admin_request(admin, "stats"), name) >= minimum) {
      return true;
    }
    std::this_thread::sleep_for(20ms);
  }
  return false;
}

TEST(NodeCluster, ThreeNodesRouteHitsAcrossProcessesAndPurgeDeadPeer) {
  // Ring topology over three real processes: B dials A, C dials A and B.
  // Fast keepalive so the frozen-peer declaration fits a test budget.
  const std::vector<std::string> base = {
      "serve",          "--port", "0",   "--admin-port",  "0",
      "--ping-interval", "100",   "--pong-budget", "2",
      "--rebuild-every", "16"};
  NodeProcess node_a(base);
  ASSERT_NE(node_a.port(), 0);
  std::vector<std::string> args_b = base;
  args_b.insert(args_b.end(),
                {"--peer", "127.0.0.1:" + std::to_string(node_a.port())});
  NodeProcess node_b(args_b);
  ASSERT_NE(node_b.port(), 0);
  // A sees B before C: the handshake wait pins A's link-id assignment, so
  // B's link is neighbor 1 on A and C's link is neighbor 2.
  ASSERT_TRUE(await_stat(node_a.admin(), "node.peer.handshakes", 1));
  std::vector<std::string> args_c = base;
  args_c.insert(args_c.end(),
                {"--peer", "127.0.0.1:" + std::to_string(node_a.port()),
                 "--peer", "127.0.0.1:" + std::to_string(node_b.port())});
  NodeProcess node_c(args_c);
  ASSERT_NE(node_c.port(), 0);
  ASSERT_TRUE(await_stat(node_a.admin(), "node.peer.handshakes", 2));
  ASSERT_TRUE(await_stat(node_b.admin(), "node.peer.handshakes", 2));
  ASSERT_TRUE(await_stat(node_c.admin(), "node.peer.handshakes", 2));
  const std::uint64_t c_link_on_a = 2;  // pinned by the handshake waits
  const std::uint64_t c_link_on_b = 2;  // B dialed A (1) before C dialed B

  // Phase 1 — 1k minable pairs: queries enter at A, hits enter at C, so
  // every matched hit and every pair A mines crossed a peered link.
  ReplayConfig load;
  load.port = node_a.port();
  load.hits_port = node_c.port();
  load.connections = 3;
  load.pairs = 1000;
  load.hosts = 12;
  load.hit_lag = 8;
  load.ttl = 4;
  load.lockstep = true;
  load.lockstep_wait_ms = 2000;
  load.drain_ms = 300;
  const ReplayStats replay = run_replay(load);
  EXPECT_GT(replay.matched_hits, 0u);
  EXPECT_EQ(replay.ttl_violations, 0u);
  EXPECT_EQ(replay.malformed, 0u);
  EXPECT_GT(replay.latency_samples, 0u);

  // Cross-node routing visible on all three admin endpoints.  A never has
  // hits injected locally, so hits_in and routed_hits there prove frames
  // crossed process boundaries and were routed by mined rules.
  const std::string stats_a = admin_request(node_a.admin(), "stats");
  EXPECT_GT(stat_value(stats_a, "node.hits_in"), 0u) << stats_a;
  EXPECT_GT(stat_value(stats_a, "node.routed_hits"), 0u) << stats_a;
  EXPECT_GT(stat_value(stats_a, "node.rule_routed"), 0u) << stats_a;
  EXPECT_GT(stat_value(stats_a, "node.pairs_mined"), 0u) << stats_a;
  const std::string stats_b = admin_request(node_b.admin(), "stats");
  EXPECT_GT(stat_value(stats_b, "node.queries_in"), 0u) << stats_b;
  const std::string stats_c = admin_request(node_c.admin(), "stats");
  EXPECT_GT(stat_value(stats_c, "node.queries_in"), 0u) << stats_c;
  EXPECT_GT(stat_value(stats_c, "node.pairs_mined"), 0u) << stats_c;

  // Phase 2 — rebuild A's rule set from sockets that stay open, so the
  // only purge that can empty it is a peer death.  Queries enter A and
  // hits enter C on persistent raw connections; A mines (ingress conn ->
  // C's link) pairs and publishes rules whose consequent is C's link.
  // The queries carry TTL 2: A relays them with TTL 1, which B records but
  // never relays onward, so C always hears a query straight from A and
  // every hit returns over C's link (with a longer TTL, C sometimes heard
  // a query first via B and the hits came back over B's link instead).
  std::vector<Fd> query_conns;
  std::vector<Fd> hit_conns;
  for (int i = 0; i < 2; ++i) {
    query_conns.push_back(connect_tcp("127.0.0.1", node_a.port()));
    hit_conns.push_back(connect_tcp("127.0.0.1", node_c.port()));
  }
  std::uint64_t guid = 0x5eed0000;
  bool routed_via_c = false;
  const auto build_deadline = Clock::now() + 20s;
  while (!routed_via_c && Clock::now() < build_deadline) {
    for (std::uint64_t i = 0; i < 32; ++i) {
      const std::size_t conn = i % 2;
      char name[16];
      std::snprintf(name, sizeof name, "p%u",
                    static_cast<unsigned>(i % 8));
      send_all(query_conns[conn],
               gnutella::serialize(gnutella::make_query(
                   gnutella::make_wire_guid(guid + i), 2, 0, name)));
      drain_fds(query_conns);
      drain_fds(hit_conns);
      // Give the query time to flood A -> C and seed C's route table
      // before the answering hit lands there.
      std::this_thread::sleep_for(1ms);
      send_all(hit_conns[conn],
               gnutella::serialize(gnutella::make_query_hit(
                   gnutella::make_wire_guid(guid + i), 4,
                   gnutella::make_wire_guid(i % 8),
                   {gnutella::HitResult{.file_index = static_cast<std::uint32_t>(i % 8),
                                        .file_size = 1,
                                        .file_name = name}})));
      drain_fds(query_conns);
      drain_fds(hit_conns);
    }
    guid += 64;
    routed_via_c =
        has_consequent(admin_request(node_a.admin(), "rules"), c_link_on_a);
  }
  ASSERT_TRUE(routed_via_c) << admin_request(node_a.admin(), "rules");

  // Phase 3 — freeze C: its sockets stay open (the kernel keeps ACKing)
  // but pongs stop, so only the missed-pong budget can declare the links
  // dead.  The purge must drop C's consequents from A's published rules
  // while A's ingress sockets are still connected.
  // The first missed pong only starts the budget: the link is declared
  // dead, and purged, one ping interval later, so each node is polled.
  const auto await_purge = [&](std::uint16_t admin, std::uint64_t link) {
    const auto purge_deadline = Clock::now() + 20s;
    while (Clock::now() < purge_deadline) {
      drain_fds(query_conns);
      if (!has_consequent(admin_request(admin, "rules"), link)) return true;
      std::this_thread::sleep_for(20ms);
    }
    return false;
  };
  node_c.freeze();
  ASSERT_TRUE(await_stat(node_a.admin(), "node.peer.missed", 1));
  EXPECT_TRUE(await_purge(node_a.admin(), c_link_on_a))
      << admin_request(node_a.admin(), "rules");
  EXPECT_TRUE(await_stat(node_b.admin(), "node.peer.missed", 1));
  EXPECT_TRUE(await_purge(node_b.admin(), c_link_on_b))
      << admin_request(node_b.admin(), "rules");
  EXPECT_FALSE(
      has_consequent(admin_request(node_b.admin(), "rules"), c_link_on_b));

  node_c.kill_now();
  EXPECT_EQ(node_a.shutdown(), 0);
  EXPECT_EQ(node_b.shutdown(), 0);
}

// --- determinism regression ----------------------------------------------

std::string render(const NodeStats& stats) {
  std::ostringstream out;
  out << stats.accepted << ' ' << stats.disconnects << ' ' << stats.bytes_in
      << ' ' << stats.bytes_out << ' ' << stats.messages_in << ' '
      << stats.malformed_frames << ' ' << stats.queries_in << ' '
      << stats.hits_in << ' ' << stats.pings_in << ' ' << stats.dropped
      << ' ' << stats.queries_relayed << ' ' << stats.hits_relayed << ' '
      << stats.rule_routed << ' ' << stats.flooded << ' '
      << stats.routed_hits << ' ' << stats.pairs_mined << ' '
      << stats.snapshots << ' ' << stats.send_timeouts << ' '
      << stats.peer_handshakes << ' ' << stats.peer_pongs << ' '
      << stats.peer_missed << ' ' << stats.peer_reconnects;
  return out.str();
}

/// Wait until a daemon's aggregate counters stop moving (trailing relay
/// deliveries land asynchronously after the last frame is processed).
std::string settled_render(Daemon& daemon) {
  std::string last = render(daemon.stats());
  int stable = 0;
  const auto deadline = Clock::now() + 10s;
  while (Clock::now() < deadline) {
    std::this_thread::sleep_for(20ms);
    std::string now = render(daemon.stats());
    if (now == last) {
      if (++stable >= 3) return now;
    } else {
      stable = 0;
      last = std::move(now);
    }
  }
  return last;
}

struct PairRun {
  std::string stats_a;
  std::string stats_b;
  std::string rules_a;
  std::string rules_b;
};

/// Split lockstep driver over a peered in-process pair: queries enter A on
/// raw sockets, hits enter B, and every send waits until *both* daemons
/// have fully processed the frame (the injected copy plus the copy relayed
/// across the peered link) before the next one goes out.  That serializes
/// the cross-daemon processing order, which is what makes two runs with
/// the same seed byte-comparable.
struct SplitLockstepDriver {
  SplitLockstepDriver(Daemon& daemon_a, Daemon& daemon_b)
      : a(daemon_a), b(daemon_b) {
    for (int i = 0; i < 2; ++i) {
      conns_a.push_back(connect_tcp("127.0.0.1", a.port()));
      conns_b.push_back(connect_tcp("127.0.0.1", b.port()));
    }
    // Roster settle: A accepts the two query sockets; B accepted A's peer
    // dial plus the two hit sockets.
    const auto deadline = Clock::now() + 30s;
    while ((a.stats().accepted < 2 || b.stats().accepted < 3) &&
           Clock::now() < deadline) {
      std::this_thread::sleep_for(1ms);
    }
  }

  /// Send one frame and wait for both daemons to advance past it.
  void send(std::vector<Fd>& conns, std::size_t conn,
            const std::vector<std::uint8_t>& bytes) {
    const std::uint64_t target_a = a.messages_processed() + 1;
    const std::uint64_t target_b = b.messages_processed() + 1;
    std::span<const std::uint8_t> remaining(bytes.data(), bytes.size());
    while (!remaining.empty()) {
      const IoResult r = write_some(conns[conn].get(), remaining);
      ASSERT_NE(r.status, IoStatus::closed);
      if (r.status == IoStatus::would_block) {
        drain();
        std::this_thread::sleep_for(100us);
        continue;
      }
      remaining = remaining.subspan(r.n);
    }
    const auto deadline = Clock::now() + 30s;
    while (a.messages_processed() < target_a ||
           b.messages_processed() < target_b) {
      ASSERT_LT(Clock::now(), deadline) << "frame never crossed the pair";
      drain();
      std::this_thread::sleep_for(50us);
    }
  }

  void drain() {
    drain_fds(conns_a);
    drain_fds(conns_b);
  }

  Daemon& a;
  Daemon& b;
  std::vector<Fd> conns_a;
  std::vector<Fd> conns_b;
};

/// One 2-node lockstep session, in-process: B listens, A dials B at
/// startup, queries enter A and hits enter B.  The keepalive interval is
/// pushed past the test horizon so no wall-clock event can perturb the
/// counters, and stats/rules are captured while every socket is still
/// open — teardown purges and close-ordering races never reach the
/// compared bytes.
PairRun run_pair_session() {
  NodeConfig config_b;
  config_b.seed = 11;
  config_b.min_support = 2;
  config_b.rebuild_every = 16;
  config_b.ping_interval_ms = 600'000;
  Daemon daemon_b(config_b);
  std::thread thread_b([&] { daemon_b.run(); });

  NodeConfig config_a = config_b;
  config_a.peers = {PeerAddress{"127.0.0.1", daemon_b.port()}};
  Daemon daemon_a(config_a);
  std::thread thread_a([&] { daemon_a.run(); });

  // The peered link must be rostered on both sides before traffic lands,
  // or the flood fan-out differs run to run.
  const auto deadline = Clock::now() + 10s;
  while ((daemon_a.stats().peer_handshakes < 1 ||
          daemon_b.stats().peer_handshakes < 1) &&
         Clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_GE(daemon_a.stats().peer_handshakes, 1u);

  PairRun result;
  {
    SplitLockstepDriver driver(daemon_a, daemon_b);
    constexpr std::size_t kPairs = 400;
    constexpr std::uint32_t kHosts = 8;
    constexpr std::size_t kLag = 4;
    std::size_t next_hit = 0;
    const auto send_query = [&](std::size_t i) {
      const std::uint32_t h = static_cast<std::uint32_t>(i) % kHosts;
      char search[16];
      std::snprintf(search, sizeof search, "q%u", h);
      driver.send(driver.conns_a, h % 2,
                  gnutella::serialize(gnutella::make_query(
                      gnutella::make_wire_guid(2000 + i), 4, 0, search)));
    };
    const auto send_hit = [&](std::size_t i) {
      const std::uint32_t h = static_cast<std::uint32_t>(i) % kHosts;
      char file[16];
      std::snprintf(file, sizeof file, "f%u", h);
      driver.send(driver.conns_b, h % 2,
                  gnutella::serialize(gnutella::make_query_hit(
                      gnutella::make_wire_guid(2000 + i), 4,
                      gnutella::make_wire_guid(h),
                      {gnutella::HitResult{.file_index = h,
                                           .file_size = 1,
                                           .file_name = file}})));
    };
    for (std::size_t i = 0; i < kPairs; ++i) {
      send_query(i);
      while (next_hit + kLag <= i) send_hit(next_hit++);
    }
    while (next_hit < kPairs) send_hit(next_hit++);

    // Capture while every socket is still open and the counters are quiet.
    result.stats_a = settled_render(daemon_a);
    result.stats_b = settled_render(daemon_b);
    result.rules_a = daemon_a.rules_text();
    result.rules_b = daemon_b.rules_text();
  }
  daemon_a.stop();
  thread_a.join();
  daemon_b.stop();
  thread_b.join();
  return result;
}

TEST(NodeClusterDeterminism, SameSeedLockstepPairRunsAreByteIdentical) {
  const PairRun first = run_pair_session();
  const PairRun second = run_pair_session();
  EXPECT_EQ(first.stats_a, second.stats_a);
  EXPECT_EQ(first.stats_b, second.stats_b);
  EXPECT_EQ(first.rules_a, second.rules_a);
  EXPECT_EQ(first.rules_b, second.rules_b);
  // Both daemons must actually have mined rules for the byte comparison
  // to mean anything: A's name its peered link, B's name the hit conns.
  EXPECT_GT(rule_count(first.rules_a), 0u);
  EXPECT_GT(rule_count(first.rules_b), 0u);
}

}  // namespace
}  // namespace aar::node
