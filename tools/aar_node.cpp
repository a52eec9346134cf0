// aar_node — the networked serving daemon (docs/NODE.md).
//
// The paper's capture ran at "a modified node in the Gnutella network";
// aar_node is that node as a process: an epoll loop speaking the Gnutella
// 0.4 wire format on real sockets, relaying descriptors through the capture
// relay rules, mining association rules from the query/reply pairs it
// observes, and rule-routing live queries.
//
// Usage:
//   aar_node serve [--port P] [--admin-port P] [--window N]
//                  [--min-support T] [--rebuild-every N] [--top-k K]
//                  [--retries R] [--backoff-ms B] [--jitter-ms J]
//                  [--send-timeout-ms T] [--send-buffer B] [--seed S]
//                  [--peer HOST:PORT]... [--ping-interval MS]
//                  [--pong-budget N] [--state-dir DIR] [--checkpoint-ms MS]
//   aar_node replay --port P [--host H] [--trace F.aartr] [--pairs N]
//                  [--rate N] [--connections C] [--ttl T] [--hit-lag N]
//                  [--hosts N] [--drain-ms N] [--seed S]
//                  [--hits-host H] [--hits-port P] [--expect-hits N]
//   aar_node admin --port P [--host H] [--command CMD]
//
// `serve` prints its bound ports ("listening P" / "admin P") and serves
// until SIGINT/SIGTERM or an admin `shutdown`, then dumps final node.*
// stats to stdout.  `replay` drives a live daemon with a query/hit workload
// (synthetic or a pairs-kind .aartr trace) and reports relay/latency stats,
// including a ttl_violations count that must be zero against a correct
// relay.  `admin` sends one command (default `stats`) and prints the reply.
//
// Exit status: 0 on success, 1 on runtime failures (daemon unreachable,
// bad trace), 2 on usage errors; unknown or malformed flags are rejected.

#include <poll.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "node/daemon.hpp"
#include "node/net.hpp"
#include "node/peering.hpp"
#include "node/replay.hpp"
#include "util/cli.hpp"

namespace {

using namespace aar;

int usage() {
  std::cerr
      << "usage:\n"
         "  aar_node serve [--port P] [--admin-port P] [--threads N]\n"
         "                 [--bind ADDR] [--window N] [--min-support T]\n"
         "                 [--rebuild-every N] [--top-k K] [--retries R]\n"
         "                 [--backoff-ms B] [--jitter-ms J]\n"
         "                 [--send-timeout-ms T] [--send-buffer B] [--seed S]\n"
         "                 [--peer HOST:PORT]... [--ping-interval MS]\n"
         "                 [--pong-budget N] [--state-dir DIR]\n"
         "                 [--checkpoint-ms MS]\n"
         "  aar_node replay --port P [--host H] [--trace F.aartr]\n"
         "                 [--pairs N] [--rate N] [--connections C]\n"
         "                 [--ttl T] [--hit-lag N] [--hosts N]\n"
         "                 [--drain-ms N] [--lockstep 0|1]\n"
         "                 [--lockstep-wait-ms N] [--seed S]\n"
         "                 [--hits-host H] [--hits-port P] [--expect-hits N]\n"
         "  aar_node admin --port P [--host H] [--command CMD]\n"
         "serve binds 127.0.0.1 unless --bind opts into another address\n"
         "(the admin port always stays loopback; port 0 = ephemeral,\n"
         "printed at startup); --threads shards the serving path across\n"
         "N cores (1..64).  --peer (repeatable) dials another daemon and\n"
         "runs the Gnutella 0.4 handshake; peered links exchange keepalive\n"
         "pings every --ping-interval ms and die after --pong-budget\n"
         "unanswered pings.  replay needs a running daemon; --lockstep 1\n"
         "waits for each frame's relayed copy before sending the next,\n"
         "making daemon stats invariant under --threads; --hits-port sends\n"
         "hits to a second daemon (cluster mode) and --expect-hits N fails\n"
         "the run (exit 1) unless at least N hits matched.  --state-dir\n"
         "persists mined state across restarts (window checkpoint + lsm\n"
         "rule archive, docs/STORAGE.md); --checkpoint-ms adds periodic\n"
         "checkpoints on top of the shutdown one.  admin commands are\n"
         "health | stats | metrics | rules | connect host:port |\n"
         "disconnect id | archive id | shutdown.\n";
  return 2;
}

/// Flags each subcommand accepts; any other flag is a usage error.
const util::CliCommands kCommands = {
    {"serve",
     {"port", "admin-port", "threads", "bind", "window", "min-support",
      "rebuild-every", "top-k", "retries", "backoff-ms", "jitter-ms",
      "send-timeout-ms", "send-buffer", "seed", "peer", "ping-interval",
      "pong-budget", "state-dir", "checkpoint-ms"}},
    {"replay",
     {"port", "host", "trace", "pairs", "rate", "connections", "ttl",
      "hit-lag", "hosts", "drain-ms", "lockstep", "lockstep-wait-ms", "seed",
      "hits-host", "hits-port", "expect-hits"}},
    {"admin", {"port", "host", "command"}},
};

node::Daemon* g_daemon = nullptr;

void handle_signal(int) {
  if (g_daemon != nullptr) g_daemon->stop();
}

int cmd_serve(const util::Cli& options) {
  node::NodeConfig config;
  config.port = options.num<std::uint16_t>("port", 0);
  config.admin_port = options.num<std::uint16_t>("admin-port", 0);
  config.threads = options.num<std::size_t>("threads", config.threads, 1, 64);
  if (options.has("bind")) {
    // --bind is the explicit opt-in for non-loopback serving; the Daemon
    // refuses non-loopback addresses that arrive any other way.
    config.bind_addr = options.get("bind", "");
    config.allow_nonloopback = true;
  }
  // The mining knobs start at 1: a 0 window never evicts (memory and the
  // checkpoint grow without bound), a 0 top-k floods every query even where
  // rules exist, the miner refuses a 0 support, and a 0 rebuild cadence
  // would silently republish the rules after every pair.
  config.window = options.num<std::size_t>("window", 4096, 1);
  config.min_support = options.num<std::uint32_t>("min-support", 2, 1);
  config.rebuild_every = options.num<std::size_t>("rebuild-every", 64, 1);
  config.top_k = options.num<std::size_t>("top-k", 2, 1);
  config.retries = options.num<std::uint32_t>("retries", 3);
  config.backoff_ms = options.num<std::uint32_t>("backoff-ms", 10);
  config.backoff_jitter_ms = options.num<std::uint32_t>("jitter-ms", 0);
  config.send_timeout_ms = options.num<std::uint32_t>("send-timeout-ms", 2000);
  config.send_buffer = options.num<int>("send-buffer", 0, 0);
  config.seed = options.num<std::uint64_t>("seed", 7);
  // Strict peering flags: a peer endpoint that silently parsed wrong would
  // dial (and retry forever against) the wrong machine.
  for (const std::string& raw : options.all("peer")) {
    const std::optional<node::PeerAddress> address =
        node::parse_host_port(raw);
    if (!address.has_value()) {
      std::cerr << "serve: --peer must be IPv4:port, got '" << raw << "'\n";
      return usage();
    }
    config.peers.push_back(*address);
  }
  config.ping_interval_ms = options.num<std::uint32_t>(
      "ping-interval", config.ping_interval_ms, 0, 3'600'000);
  config.pong_budget =
      options.num<std::uint32_t>("pong-budget", config.pong_budget, 1, 100);
  if (options.has("state-dir")) {
    // Strict: an empty path would silently disable persistence the caller
    // explicitly asked for.
    config.state_dir = options.get("state-dir", "");
    if (config.state_dir.empty()) {
      std::cerr << "serve: --state-dir must be a non-empty path\n";
      return usage();
    }
  }
  config.checkpoint_ms = options.num<std::uint32_t>(
      "checkpoint-ms", config.checkpoint_ms, 0, 3'600'000);
  if (config.checkpoint_ms > 0 && !options.has("state-dir")) {
    std::cerr << "serve: --checkpoint-ms needs --state-dir\n";
    return usage();
  }

  node::Daemon daemon(config);
  g_daemon = &daemon;
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  std::cout << "listening " << daemon.port() << "\n"
            << "admin " << daemon.admin_port() << "\n"
            << std::flush;
  daemon.run();
  g_daemon = nullptr;

  const node::NodeStats& stats = daemon.stats();
  std::cout << "node.messages_in " << stats.messages_in << "\n"
            << "node.queries_relayed " << stats.queries_relayed << "\n"
            << "node.hits_relayed " << stats.hits_relayed << "\n"
            << "node.rule_routed " << stats.rule_routed << "\n"
            << "node.flooded " << stats.flooded << "\n"
            << "node.routed_hits " << stats.routed_hits << "\n"
            << "node.pairs_mined " << stats.pairs_mined << "\n"
            << "node.send_timeouts " << stats.send_timeouts << "\n"
            << "node.peer.handshakes " << stats.peer_handshakes << "\n"
            << "node.peer.pongs " << stats.peer_pongs << "\n"
            << "node.peer.missed " << stats.peer_missed << "\n"
            << "node.peer.reconnects " << stats.peer_reconnects << "\n";
  std::printf("node.routed_hit_fraction %.6f\n", stats.routed_hit_fraction());
  return 0;
}

int cmd_replay(const util::Cli& options) {
  if (!options.has("port")) {
    std::cerr << "replay: --port is required\n";
    return usage();
  }
  node::ReplayConfig config;
  config.host = options.get("host", "127.0.0.1");
  config.port = options.num<std::uint16_t>("port", 0);
  config.trace_path = options.get("trace", "");
  config.pairs = options.num<std::size_t>("pairs", 1000);
  config.rate = static_cast<double>(options.num<std::uint64_t>("rate", 0));
  config.connections = options.num<std::size_t>("connections", 4);
  config.ttl = options.num<std::uint8_t>("ttl", 4);
  config.hit_lag = options.num<std::size_t>("hit-lag", 16);
  config.hosts = options.num<std::uint32_t>("hosts", 32);
  config.drain_ms = options.num<std::uint32_t>("drain-ms", 1000);
  config.lockstep = options.num<int>("lockstep", 0, 0, 1) != 0;
  config.lockstep_wait_ms = options.num<std::uint32_t>("lockstep-wait-ms", 500);
  config.seed = options.num<std::uint64_t>("seed", 1);
  config.hits_host = options.get("hits-host", "127.0.0.1");
  config.hits_port = options.num<std::uint16_t>("hits-port", 0);
  const auto expect_hits = options.num<std::uint64_t>("expect-hits", 0, 1);

  const node::ReplayStats stats = node::run_replay(config);
  std::cout << node::to_text(stats);
  if (expect_hits > 0 && stats.matched_hits < expect_hits) {
    std::cerr << "replay: expected at least " << expect_hits
              << " matched hits, got " << stats.matched_hits << "\n";
    return 1;
  }
  return 0;
}

int cmd_admin(const util::Cli& options) {
  if (!options.has("port")) {
    std::cerr << "admin: --port is required\n";
    return usage();
  }
  const std::string host = options.get("host", "127.0.0.1");
  const auto port = options.num<std::uint16_t>("port", 0);
  const std::string command = options.get("command", "stats") + "\n";

  node::Fd fd = node::connect_tcp(host, port);
  std::span<const std::uint8_t> remaining(
      reinterpret_cast<const std::uint8_t*>(command.data()), command.size());
  while (!remaining.empty()) {
    const node::IoResult r = node::write_some(fd.get(), remaining);
    if (r.status == node::IoStatus::closed) {
      std::cerr << "admin: connection closed while sending\n";
      return 1;
    }
    remaining = remaining.subspan(r.n);
  }
  // The daemon replies and closes; read to EOF.
  std::vector<std::uint8_t> buffer(64 * 1024);
  for (;;) {
    const node::IoResult r = node::read_some(fd.get(), buffer);
    if (r.status == node::IoStatus::closed) break;
    if (r.status == node::IoStatus::would_block) {
      pollfd waiter{.fd = fd.get(), .events = POLLIN, .revents = 0};
      (void)::poll(&waiter, 1, 1000);
      continue;
    }
    std::cout.write(reinterpret_cast<const char*>(buffer.data()),
                    static_cast<std::streamsize>(r.n));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::Cli options = util::Cli::command_line(argc, argv, kCommands);
    if (options.command() == "serve") return cmd_serve(options);
    if (options.command() == "replay") return cmd_replay(options);
    if (options.command() == "admin") return cmd_admin(options);
  } catch (const util::CliUsageError& error) {
    std::cerr << "aar_node: " << error.what() << "\n";
    return usage();
  } catch (const std::exception& error) {
    std::cerr << "aar_node: " << error.what() << "\n";
    return 1;
  }
  return usage();
}
