#include "node/replay.hpp"

#include <poll.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <vector>

#include "gnutella/codec.hpp"
#include "node/net.hpp"
#include "store/reader.hpp"
#include "trace/record.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace aar::node {

namespace {

using Clock = std::chrono::steady_clock;
using gnutella::Message;
using gnutella::MessageType;

/// One frame to emit: a query or (lagged) its answering hit.
struct Event {
  bool is_hit = false;
  std::size_t pair = 0;
};

struct SentQuery {
  std::size_t origin = 0;  ///< connection the query went out on
  Clock::time_point sent{};
};

struct Peer {
  Fd fd;
  gnutella::FrameDecoder decoder;
};

/// Synthesize pairs with a stable host -> home-connection association so
/// the daemon's miner has real structure to find: all of a host's hits
/// arrive through one connection.
std::vector<trace::QueryReplyPair> synthesize(const ReplayConfig& config) {
  util::Rng rng(config.seed);
  std::vector<trace::QueryReplyPair> pairs;
  pairs.reserve(config.pairs);
  for (std::size_t i = 0; i < config.pairs; ++i) {
    const std::uint32_t host =
        static_cast<std::uint32_t>(rng.below(std::max(config.hosts, 1u)));
    pairs.push_back(trace::QueryReplyPair{
        .time = static_cast<double>(i),
        .guid = config.seed * 1'000'003 + i + 1,
        .source_host = host,
        .replying_neighbor = host * 2654435761u,  // folded into a conn below
        .query = host * 31u + 7u,
    });
  }
  return pairs;
}

}  // namespace

ReplayStats run_replay(const ReplayConfig& config) {
  if (config.port == 0) throw std::invalid_argument("replay: port required");
  const std::size_t n_conns = std::max<std::size_t>(config.connections, 2);
  // Split-target mode: hits enter through their own connection set on a
  // different daemon; a matched hit then proves cross-process relay.
  const bool split = config.hits_port != 0;
  const std::size_t total_conns = split ? n_conns * 2 : n_conns;

  std::vector<trace::QueryReplyPair> pairs;
  if (!config.trace_path.empty()) {
    const store::Reader reader(config.trace_path);
    pairs = reader.read_all_pairs();
  } else {
    pairs = synthesize(config);
  }
  if (pairs.empty()) throw std::runtime_error("replay: no pairs to send");

  // Connection mapping: the query arrives from conn (source % N); the hit
  // arrives through the source's home conn, guaranteed distinct so the
  // reply always has somewhere to be relayed back to.  In split mode the
  // hit conns live on the far daemon (indices N..2N-1), so distinctness is
  // structural.
  const auto query_conn = [n_conns](const trace::QueryReplyPair& pair) {
    return static_cast<std::size_t>(pair.source_host) % n_conns;
  };
  const auto hit_conn = [&](const trace::QueryReplyPair& pair) {
    const std::size_t base =
        static_cast<std::size_t>(pair.replying_neighbor) % n_conns;
    if (split) return n_conns + base;
    const std::size_t origin = query_conn(pair);
    return base == origin ? (base + 1) % n_conns : base;
  };

  // Interleave: query i at slot i, its hit hit_lag events later.
  std::vector<Event> schedule;
  schedule.reserve(pairs.size() * 2);
  const std::size_t lag = std::max<std::size_t>(config.hit_lag, 1);
  std::size_t next_hit = 0;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    schedule.push_back(Event{.is_hit = false, .pair = i});
    while (next_hit + lag <= i) {
      schedule.push_back(Event{.is_hit = true, .pair = next_hit});
      ++next_hit;
    }
  }
  while (next_hit < pairs.size()) {
    schedule.push_back(Event{.is_hit = true, .pair = next_hit});
    ++next_hit;
  }

  std::vector<Peer> peers(total_conns);
  for (std::size_t i = 0; i < total_conns; ++i) {
    peers[i].fd = i < n_conns
                      ? connect_tcp(config.host, config.port)
                      : connect_tcp(config.hits_host, config.hits_port);
  }

  ReplayStats stats;
  std::unordered_map<std::uint64_t, SentQuery> outstanding;
  std::vector<double> latencies;
  latencies.reserve(pairs.size());
  std::vector<std::uint8_t> read_buffer(64 * 1024);

  // Lockstep watch: the frame whose relayed copy we are waiting on.  In
  // split mode only the far daemon's sighting counts (watch_far).
  std::uint64_t watch_guid = 0;
  MessageType watch_type = MessageType::kPing;
  bool watch_seen = false;
  bool watch_far = false;
  // Which connections have seen a relayed ping (roster barrier, below).
  std::vector<char> ping_seen(total_conns, 0);

  const auto sweep_reads = [&] {
    for (std::size_t i = 0; i < total_conns; ++i) {
      Peer& peer = peers[i];
      if (!peer.fd.valid()) continue;
      for (;;) {
        const IoResult r = read_some(peer.fd.get(), read_buffer);
        if (r.status == IoStatus::would_block) break;
        if (r.status == IoStatus::closed) {
          peer.fd.reset();
          break;
        }
        peer.decoder.feed({read_buffer.data(), r.n});
        while (auto message = peer.decoder.next()) {
          ++stats.frames_received;
          const gnutella::Header& header = message->header;
          // Every relayed frame has spent one TTL per hop travelled — the
          // sum is conserved however many daemons it crossed (we always
          // send hops = 0), and at least one rewrite must have happened.
          if (static_cast<unsigned>(header.ttl) + header.hops != config.ttl ||
              header.hops < 1) {
            ++stats.ttl_violations;
          }
          if (gnutella::fold_guid(header.guid) == watch_guid &&
              header.type == watch_type &&
              (!watch_far || (watch_type == MessageType::kQuery
                                  ? i >= n_conns
                                  : i < n_conns))) {
            watch_seen = true;
          }
          if (header.type == MessageType::kPing) ping_seen[i] = 1;
          if (header.type == MessageType::kQuery) {
            ++stats.queries_received;
          } else if (header.type == MessageType::kQueryHit) {
            ++stats.hits_received;
            const std::uint64_t guid = gnutella::fold_guid(header.guid);
            const auto it = outstanding.find(guid);
            if (it != outstanding.end() && it->second.origin == i) {
              ++stats.matched_hits;
              latencies.push_back(
                  std::chrono::duration<double, std::milli>(
                      Clock::now() - it->second.sent)
                      .count());
              outstanding.erase(it);
            }
          }
        }
        if (r.n < read_buffer.size()) break;
      }
    }
    std::uint64_t malformed = 0;
    for (const Peer& peer : peers) malformed += peer.decoder.malformed_frames();
    stats.malformed = malformed;
  };

  const auto send_all = [&](std::size_t conn,
                            const std::vector<std::uint8_t>& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      Peer& peer = peers[conn];
      if (!peer.fd.valid()) return;
      const IoResult r = write_some(
          peer.fd.get(), {bytes.data() + off, bytes.size() - off});
      if (r.status == IoStatus::closed) {
        peer.fd.reset();
        return;
      }
      off += r.n;
      if (off < bytes.size()) {
        // Keep draining relays while our send socket is full, or the daemon
        // and this client deadlock writing at each other.
        sweep_reads();
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  };

  if ((config.lockstep || split) && total_conns > 1) {
    // Roster barrier.  connect() returns when the kernel completes the
    // handshake, *before* the daemon's control thread accepts and registers
    // the peer — so an immediate first frame could flood to fewer targets
    // than the settled roster, breaking the thread-count stats invariance
    // this mode exists to pin.  The daemon registers peers in accept order
    // (FIFO on loopback), so once a ping sent on the LAST connection floods
    // back to every other connection, the whole roster is registered.  In
    // split mode the ping must also cross the peered link to reach the
    // near daemon's connections, which additionally barriers on the
    // cluster's handshakes having completed — the ping is re-sent with a
    // fresh GUID while waiting, since a copy flooded before the links came
    // up is simply lost.
    std::uint64_t barrier_guid = 0;
    const auto send_barrier_ping = [&] {
      send_all(total_conns - 1,
               gnutella::serialize(gnutella::make_ping(
                   gnutella::make_wire_guid(barrier_guid++),
                   static_cast<std::uint8_t>(config.ttl))));
    };
    send_barrier_ping();
    const auto roster_ready = [&] {
      for (std::size_t i = 0; i + 1 < total_conns; ++i) {
        if (!ping_seen[i]) return false;
      }
      return true;
    };
    const Clock::time_point give_up =
        Clock::now() + std::chrono::milliseconds(config.lockstep_wait_ms);
    Clock::time_point resend_at = Clock::now() + std::chrono::milliseconds(50);
    while (!roster_ready() && Clock::now() < give_up) {
      sweep_reads();
      if (roster_ready()) break;
      if (Clock::now() >= resend_at) {
        send_barrier_ping();
        resend_at = Clock::now() + std::chrono::milliseconds(50);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    if (!roster_ready()) ++stats.lockstep_timeouts;
  }

  const Clock::time_point start = Clock::now();
  const double spacing_s = config.rate > 0.0 ? 1.0 / config.rate : 0.0;
  std::size_t sent = 0;
  for (const Event& event : schedule) {
    const trace::QueryReplyPair& pair = pairs[event.pair];
    const gnutella::WireGuid guid = gnutella::make_wire_guid(pair.guid);
    if (config.lockstep) {
      // Arm the watch before sending: the relayed copy can arrive inside
      // send_all's own sweep_reads.
      watch_guid = gnutella::fold_guid(guid);
      watch_type = event.is_hit ? MessageType::kQueryHit : MessageType::kQuery;
      watch_seen = false;
      watch_far = split;
    }
    if (!event.is_hit) {
      char search[32];
      std::snprintf(search, sizeof search, "q%u", pair.query);
      const Message query =
          gnutella::make_query(guid, config.ttl, 0, search);
      const std::size_t conn = query_conn(pair);
      outstanding[gnutella::fold_guid(guid)] =
          SentQuery{.origin = conn, .sent = Clock::now()};
      send_all(conn, serialize(query));
      ++stats.queries_sent;
    } else {
      char file[32];
      std::snprintf(file, sizeof file, "f%u", pair.query);
      const Message hit = gnutella::make_query_hit(
          guid, config.ttl, gnutella::make_wire_guid(pair.source_host),
          {gnutella::HitResult{.file_index = pair.query,
                               .file_size = 1,
                               .file_name = file}});
      send_all(hit_conn(pair), serialize(hit));
      ++stats.hits_sent;
    }
    ++sent;
    if (config.lockstep) {
      const Clock::time_point give_up =
          Clock::now() + std::chrono::milliseconds(config.lockstep_wait_ms);
      while (!watch_seen && Clock::now() < give_up) {
        sweep_reads();
        if (!watch_seen) {
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
      }
      if (!watch_seen) ++stats.lockstep_timeouts;
    }
    if ((sent & 0x1f) == 0) sweep_reads();
    if (spacing_s > 0.0) {
      const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(
                                       spacing_s * static_cast<double>(sent)));
      while (Clock::now() < due) {
        sweep_reads();
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
  }
  const double send_elapsed =
      std::chrono::duration<double>(Clock::now() - start).count();

  // Drain trailing relays.
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(config.drain_ms);
  while (Clock::now() < deadline) {
    sweep_reads();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  stats.elapsed_s = send_elapsed;
  stats.throughput_fps =
      send_elapsed > 0.0
          ? static_cast<double>(stats.queries_sent + stats.hits_sent) /
                send_elapsed
          : 0.0;
  std::sort(latencies.begin(), latencies.end());
  stats.latency_samples = latencies.size();
  stats.latency_p50_ms = util::percentile_sorted(latencies, 50.0);
  stats.latency_p99_ms = util::percentile_sorted(latencies, 99.0);
  stats.latency_max_ms = latencies.empty() ? 0.0 : latencies.back();
  return stats;
}

std::string to_text(const ReplayStats& stats) {
  std::ostringstream out;
  out << "replay.queries_sent " << stats.queries_sent << '\n'
      << "replay.hits_sent " << stats.hits_sent << '\n'
      << "replay.frames_received " << stats.frames_received << '\n'
      << "replay.queries_received " << stats.queries_received << '\n'
      << "replay.hits_received " << stats.hits_received << '\n'
      << "replay.matched_hits " << stats.matched_hits << '\n'
      << "replay.ttl_violations " << stats.ttl_violations << '\n'
      << "replay.malformed " << stats.malformed << '\n'
      << "replay.lockstep_timeouts " << stats.lockstep_timeouts << '\n';
  char buffer[256];
  std::snprintf(buffer, sizeof buffer,
                "replay.elapsed_s %.3f\nreplay.throughput_fps %.1f\n",
                stats.elapsed_s, stats.throughput_fps);
  out << buffer;
  out << "replay.latency_samples " << stats.latency_samples << '\n';
  if (stats.latency_samples == 0) {
    // No matched hit ever arrived: percentiles of an empty sample set are
    // undefined, and 0.0 would read as an impossibly fast network.
    out << "replay.latency_p50_ms n/a\nreplay.latency_p99_ms n/a\n"
           "replay.latency_max_ms n/a\n";
  } else {
    std::snprintf(buffer, sizeof buffer,
                  "replay.latency_p50_ms %.3f\nreplay.latency_p99_ms %.3f\n"
                  "replay.latency_max_ms %.3f\n",
                  stats.latency_p50_ms, stats.latency_p99_ms,
                  stats.latency_max_ms);
    out << buffer;
  }
  return out.str();
}

}  // namespace aar::node
