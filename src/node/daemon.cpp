#include "node/daemon.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <system_error>

#include "lsm/store.hpp"
#include "obs/metrics.hpp"
#include "obs/registry.hpp"
#include "store/reader.hpp"
#include "store/writer.hpp"

namespace aar::node {

namespace {

constexpr std::size_t kReadChunk = 64 * 1024;

std::span<const std::uint8_t> as_bytes(const std::string& text) {
  return {reinterpret_cast<const std::uint8_t*>(text.data()), text.size()};
}

std::string shard_metric(std::size_t shard, const char* leaf) {
  return "node.shard." + std::to_string(shard) + "." + leaf;
}

}  // namespace

Daemon::Daemon(NodeConfig config) : config_(std::move(config)) {
  if (config_.threads == 0) config_.threads = 1;
  if (!is_loopback_address(config_.bind_addr) && !config_.allow_nonloopback) {
    throw std::invalid_argument(
        "refusing non-loopback listener " + config_.bind_addr +
        ": pass --bind " + config_.bind_addr + " to opt in");
  }
  listen_fd_ = listen_tcp(config_.port, port_, config_.bind_addr);
  admin_fd_ = listen_tcp(config_.admin_port, admin_port_);  // always loopback
  shared_.serving_port = port_;  // advertised in keepalive Pongs
  epoll_fd_ = Fd(::epoll_create1(0));
  if (!epoll_fd_.valid()) {
    throw std::system_error(errno, std::generic_category(), "epoll_create1");
  }
  wake_fd_ = Fd(::eventfd(0, EFD_NONBLOCK));
  if (!wake_fd_.valid()) {
    throw std::system_error(errno, std::generic_category(), "eventfd");
  }
  const auto watch = [this](int fd) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, fd, &ev) < 0) {
      throw std::system_error(errno, std::generic_category(), "epoll_ctl");
    }
  };
  watch(listen_fd_.get());
  watch(admin_fd_.get());
  watch(wake_fd_.get());
  read_buffer_.resize(kReadChunk);

  shared_.windows = std::vector<ShardWindow>(config_.threads);
  shared_.hub = std::make_unique<MiningHub>(
      mining::MinerConfig{.window = config_.window,
                          .min_support = config_.min_support,
                          .min_confidence = 0.0},
      config_.rebuild_every, config_.threads);
  shards_.reserve(config_.threads);
  for (std::size_t i = 0; i < config_.threads; ++i) {
    shards_.push_back(std::make_unique<Shard>(i, config_, shared_));
    shared_.shards.push_back(shards_.back().get());
  }
  shard_reported_.resize(config_.threads);
  open_state();
}

Daemon::~Daemon() = default;

void Daemon::open_state() {
  if (config_.state_dir.empty()) return;
  // Opening the archive creates state_dir (and recovers the manifest
  // ladder); wiring it into SharedState turns on the per-pair fold in
  // Shard::mine_pair.
  archive_ = std::make_unique<lsm::Store>(config_.state_dir + "/archive");
  shared_.archive = archive_.get();

  std::vector<trace::QueryReplyPair> pairs;
  try {
    const store::Reader reader(config_.state_dir + "/window.aartr");
    pairs = reader.read_all_pairs();
  } catch (const std::exception&) {
    return;  // missing or torn checkpoint: cold start, re-learn from traffic
  }
  if (pairs.empty()) return;
  // The checkpoint is the miner's merged window, oldest first; replaying
  // it through the same miner config republishes byte-identical rules.
  shared_.hub->restore_window(pairs);
  restored_pairs_ = pairs.size();
  // Pair times are capture-clock ticks; restart the clock past the newest
  // restored tick so fresh pairs never collide with checkpointed ones.
  double newest = 0.0;
  for (const trace::QueryReplyPair& pair : pairs) {
    newest = std::max(newest, pair.time);
  }
  shared_.clock.store(static_cast<std::uint64_t>(newest),
                      std::memory_order_relaxed);
}

void Daemon::checkpoint() {
  if (archive_ == nullptr) return;
  const std::vector<trace::QueryReplyPair> pairs =
      shared_.hub->window_pairs();
  const std::string path = config_.state_dir + "/window.aartr";
  const std::string tmp = path + ".tmp";
  try {
    store::write_pairs_file(tmp, pairs);
  } catch (const std::exception&) {
    std::remove(tmp.c_str());  // disk trouble: keep the previous checkpoint
    return;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return;
  }
  archive_->flush();
  checkpoints_.fetch_add(1, std::memory_order_relaxed);
}

void Daemon::stop() {
  stop_.store(true, std::memory_order_relaxed);
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_.get(), &one, sizeof one);
}

void Daemon::run() {
  if (ran_) throw std::logic_error("Daemon::run() may only be called once");
  ran_ = true;
  for (auto& shard : shards_) shard->start();
  // Startup peers dial in flag order, so their neighbor ids are a pure
  // function of the command line (reconnects reuse the id).
  for (const PeerAddress& peer : config_.peers) dial_peer(peer);
  last_checkpoint_ = std::chrono::steady_clock::now();
  std::array<epoll_event, 64> events{};
  while (true) {
    if (stop_.load(std::memory_order_relaxed)) stopping_ = true;
    if (stopping_) {
      // Let the shutdown acknowledgement drain before leaving.
      const bool admin_pending = std::any_of(
          admin_conns_.begin(), admin_conns_.end(), [](const auto& entry) {
            return entry.second->queued() > 0;
          });
      if (!admin_pending) break;
    }
    const int n = ::epoll_wait(epoll_fd_.get(), events.data(),
                               static_cast<int>(events.size()),
                               stopping_ ? 10 : 200);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::system_error(errno, std::generic_category(), "epoll_wait");
    }
    for (std::size_t i = 0; i < static_cast<std::size_t>(n); ++i) {
      const int fd = events[i].data.fd;
      const std::uint32_t mask = events[i].events;
      if (fd == listen_fd_.get()) {
        accept_peers();
        continue;
      }
      if (fd == admin_fd_.get()) {
        accept_admin();
        continue;
      }
      if (fd == wake_fd_.get()) {
        std::uint64_t drained = 0;
        [[maybe_unused]] const ssize_t r =
            ::read(wake_fd_.get(), &drained, sizeof drained);
        continue;
      }
      if ((mask & (EPOLLHUP | EPOLLERR)) != 0) {
        close_admin(fd);
        continue;
      }
      if ((mask & EPOLLIN) != 0) {
        if (const auto it = admin_conns_.find(fd); it != admin_conns_.end()) {
          on_admin_readable(*it->second);
        }
      }
      if ((mask & EPOLLOUT) != 0) {
        if (const auto it = admin_conns_.find(fd); it != admin_conns_.end()) {
          admin_flush(*it->second);
        }
      }
    }
    if (archive_ != nullptr && config_.checkpoint_ms > 0) {
      const auto now = std::chrono::steady_clock::now();
      if (now - last_checkpoint_ >=
          std::chrono::milliseconds(config_.checkpoint_ms)) {
        checkpoint();
        last_checkpoint_ = now;
      }
    }
  }
  for (auto& shard : shards_) shard->request_stop();
  for (auto& shard : shards_) shard->join();
  // Shards are quiesced: merge the pairs they mined since the last rebuild,
  // so this checkpoint captures the whole final window — the restart test
  // compares rule bytes across exactly this boundary.
  shared_.hub->merge_pending(shared_.windows, *shared_.peers.list());
  checkpoint();
  sync_metrics();
}

NeighborId Daemon::dial_peer(const PeerAddress& address) {
  const NeighborId id = next_neighbor_++;
  const std::uint32_t shard =
      static_cast<std::uint32_t>((id - 1) % config_.threads);
  // The shard joins the link to the roster only once the handshake
  // completes (Shard::establish) — a half-open link must not attract
  // relay traffic.
  shards_[shard]->dial(address, id);
  return id;
}

void Daemon::drop_peer(NeighborId id) {
  // Connection-to-shard pinning is a pure function of the id, so the drop
  // routes without any directory lookup (the link may even be mid-redial).
  const std::uint32_t shard =
      static_cast<std::uint32_t>((id - 1) % config_.threads);
  shards_[shard]->drop(id);
}

void Daemon::accept_peers() {
  for (;;) {
    Fd client = accept_client(listen_fd_.get());
    if (!client.valid()) return;
    if (config_.send_buffer > 0) {
      set_send_buffer(client.get(), config_.send_buffer);
    }
    const NeighborId id = next_neighbor_++;
    const std::uint32_t shard =
        static_cast<std::uint32_t>((id - 1) % config_.threads);
    // Roster first, then hand-off: by the time the owning shard reads the
    // first frame, every shard's flood set already includes the newcomer.
    std::shared_ptr<Peer> entry = shared_.peers.add(id, shard);
    shards_[shard]->adopt(std::move(client), id, std::move(entry));
    accepted_.fetch_add(1, std::memory_order_relaxed);
  }
}

void Daemon::accept_admin() {
  for (;;) {
    Fd client = accept_client(admin_fd_.get());
    if (!client.valid()) return;
    const int fd = client.get();
    auto connection = std::make_unique<AdminConnection>();
    connection->fd = std::move(client);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, fd, &ev) < 0) {
      continue;
    }
    admin_conns_[fd] = std::move(connection);
  }
}

void Daemon::on_admin_readable(AdminConnection& connection) {
  const int fd = connection.fd.get();
  for (;;) {
    const IoResult r = read_some(fd, read_buffer_);
    if (r.status == IoStatus::would_block) break;
    if (r.status == IoStatus::closed) {
      close_admin(fd);
      return;
    }
    connection.input.append(reinterpret_cast<const char*>(read_buffer_.data()),
                            r.n);
    if (connection.input.size() > 4096) {
      close_admin(fd);  // nobody types 4 KiB of admin commands
      return;
    }
    if (r.n < read_buffer_.size()) break;
  }
  std::size_t newline = 0;
  while ((newline = connection.input.find('\n')) != std::string::npos) {
    std::string line = connection.input.substr(0, newline);
    connection.input.erase(0, newline + 1);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    handle_admin_line(connection, line);
    if (admin_conns_.find(fd) == admin_conns_.end()) return;  // closed
  }
}

void Daemon::handle_admin_line(AdminConnection& connection,
                               const std::string& line) {
  admin_requests_.fetch_add(1, std::memory_order_relaxed);
  std::string reply;
  if (line == "health") {
    reply = "ok\n";
  } else if (line == "stats") {
    sync_metrics();
    reply = stats_text();
  } else if (line == "metrics") {
    reply = metrics_json();
  } else if (line == "rules") {
    reply = rules_text();
  } else if (line.rfind("connect ", 0) == 0) {
    const std::optional<PeerAddress> address =
        parse_host_port(line.substr(8));
    if (address.has_value()) {
      reply = "ok " + std::to_string(dial_peer(*address)) + "\n";
    } else {
      reply = "err connect expects host:port\n";
    }
  } else if (line.rfind("disconnect ", 0) == 0) {
    const std::string arg = line.substr(11);
    const bool digits =
        !arg.empty() && std::all_of(arg.begin(), arg.end(), [](unsigned char c) {
          return c >= '0' && c <= '9';
        });
    char* end = nullptr;
    const unsigned long long id =
        digits ? std::strtoull(arg.c_str(), &end, 10) : 0;
    if (digits && end != nullptr && *end == '\0' && id >= 1 &&
        id <= std::numeric_limits<NeighborId>::max()) {
      drop_peer(static_cast<NeighborId>(id));
      reply = "ok\n";
    } else {
      reply = "err disconnect expects a neighbor id\n";
    }
  } else if (line.rfind("archive ", 0) == 0) {
    const std::string arg = line.substr(8);
    const bool digits =
        !arg.empty() && std::all_of(arg.begin(), arg.end(), [](unsigned char c) {
          return c >= '0' && c <= '9';
        });
    char* end = nullptr;
    const unsigned long long id =
        digits ? std::strtoull(arg.c_str(), &end, 10) : 0;
    if (archive_ == nullptr) {
      reply = "err archive needs --state-dir\n";
    } else if (digits && end != nullptr && *end == '\0' &&
               id <= std::numeric_limits<std::uint32_t>::max()) {
      std::vector<std::pair<trace::HostId, std::int64_t>> consequents;
      archive_->get_antecedent(static_cast<trace::HostId>(id), consequents);
      std::ostringstream out;
      for (const auto& [consequent, count] : consequents) {
        out << consequent << ' ' << count << '\n';
      }
      out << "end\n";
      reply = out.str();
    } else {
      reply = "err archive expects a host id\n";
    }
  } else if (line == "shutdown") {
    reply = "ok\n";
    stopping_ = true;
  } else {
    reply = "err unknown command: " + line + "\n";
  }
  // One command per connection: the reply's end is signalled by EOF, so
  // clients need no knowledge of each command's framing.
  connection.close_after_flush = true;
  admin_enqueue(connection, as_bytes(reply));
}

void Daemon::admin_enqueue(AdminConnection& connection,
                           std::span<const std::uint8_t> bytes) {
  connection.outbound.insert(connection.outbound.end(), bytes.begin(),
                             bytes.end());
  admin_flush(connection);
}

void Daemon::admin_flush(AdminConnection& connection) {
  const int fd = connection.fd.get();
  while (connection.queued() > 0) {
    const IoResult r =
        write_some(fd, {connection.outbound.data() + connection.out_off,
                        connection.queued()});
    if (r.status == IoStatus::closed) {
      close_admin(fd);
      return;
    }
    if (r.status == IoStatus::would_block || r.n == 0) break;
    connection.out_off += r.n;
  }
  if (connection.queued() == 0) {
    connection.outbound.clear();
    connection.out_off = 0;
    admin_want_writable(connection, false);
    if (connection.close_after_flush) close_admin(fd);
    return;
  }
  admin_want_writable(connection, true);
}

void Daemon::close_admin(int fd) {
  const auto it = admin_conns_.find(fd);
  if (it == admin_conns_.end()) return;
  (void)::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_DEL, fd, nullptr);
  admin_conns_.erase(it);
}

void Daemon::admin_want_writable(AdminConnection& connection, bool enable) {
  if (connection.want_out == enable) return;
  epoll_event ev{};
  ev.events = EPOLLIN | (enable ? EPOLLOUT : 0u);
  ev.data.fd = connection.fd.get();
  if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_MOD, connection.fd.get(), &ev) ==
      0) {
    connection.want_out = enable;
  }
}

void Daemon::aggregate(NodeStats& out) const {
  out = NodeStats{};
  out.accepted = accepted_.load(std::memory_order_relaxed);
  out.admin_requests = admin_requests_.load(std::memory_order_relaxed);
  out.snapshots = shared_.hub->snapshots();
  out.restored_pairs = restored_pairs_;
  out.checkpoints = checkpoints_.load(std::memory_order_relaxed);
  const auto get = [](const std::atomic<std::uint64_t>& v) {
    return v.load(std::memory_order_relaxed);
  };
  for (const auto& shard : shards_) {
    const ShardStats& s = shard->stats();
    out.disconnects += get(s.disconnects);
    out.bytes_in += get(s.bytes_in);
    out.bytes_out += get(s.bytes_out);
    out.messages_in += get(s.messages_in);
    out.malformed_frames += get(s.malformed_frames);
    out.queries_in += get(s.queries_in);
    out.hits_in += get(s.hits_in);
    out.pings_in += get(s.pings_in);
    out.dropped += get(s.dropped);
    out.queries_relayed += get(s.queries_relayed);
    out.hits_relayed += get(s.hits_relayed);
    out.rule_routed += get(s.rule_routed);
    out.flooded += get(s.flooded);
    out.routed_hits += get(s.routed_hits);
    out.pairs_mined += get(s.pairs_mined);
    out.send_retries += get(s.send_retries);
    out.send_timeouts += get(s.send_timeouts);
    out.degraded_floods += get(s.degraded_floods);
    out.peer_handshakes += get(s.peer_handshakes);
    out.peer_pongs += get(s.peer_pongs);
    out.peer_missed += get(s.peer_missed);
    out.peer_reconnects += get(s.peer_reconnects);
  }
}

const NodeStats& Daemon::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  aggregate(aggregate_);
  return aggregate_;
}

std::uint64_t Daemon::messages_processed() const noexcept {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->stats().processed.load(std::memory_order_acquire);
  }
  return total;
}

std::string Daemon::rules_text() const {
  const std::shared_ptr<const RoutingSnapshot> snapshot =
      shared_.hub->routing();
  std::ostringstream out;
  snapshot->rules.save(out);
  return out.str();
}

void Daemon::sync_metrics() {
  obs::Registry& registry = obs::Registry::global();
  NodeStats current;
  aggregate(current);
  const auto bump = [&registry](const std::string& name, std::uint64_t now,
                                std::uint64_t& reported) {
    if (now > reported) {
      registry.counter(name).add(now - reported);
      reported = now;
    }
  };
  bump("node.accepted", current.accepted, reported_.accepted);
  bump("node.disconnects", current.disconnects, reported_.disconnects);
  bump("node.bytes_in", current.bytes_in, reported_.bytes_in);
  bump("node.bytes_out", current.bytes_out, reported_.bytes_out);
  bump("node.messages_in", current.messages_in, reported_.messages_in);
  bump("node.malformed_frames", current.malformed_frames,
       reported_.malformed_frames);
  bump("node.queries_in", current.queries_in, reported_.queries_in);
  bump("node.hits_in", current.hits_in, reported_.hits_in);
  bump("node.pings_in", current.pings_in, reported_.pings_in);
  bump("node.dropped", current.dropped, reported_.dropped);
  bump("node.queries_relayed", current.queries_relayed,
       reported_.queries_relayed);
  bump("node.hits_relayed", current.hits_relayed, reported_.hits_relayed);
  bump("node.rule_routed", current.rule_routed, reported_.rule_routed);
  bump("node.flooded", current.flooded, reported_.flooded);
  bump("node.routed_hits", current.routed_hits, reported_.routed_hits);
  bump("node.pairs_mined", current.pairs_mined, reported_.pairs_mined);
  bump("node.snapshots", current.snapshots, reported_.snapshots);
  bump("node.send_retries", current.send_retries, reported_.send_retries);
  bump("node.send_timeouts", current.send_timeouts, reported_.send_timeouts);
  bump("node.degraded_floods", current.degraded_floods,
       reported_.degraded_floods);
  bump("node.admin_requests", current.admin_requests,
       reported_.admin_requests);
  bump("node.peer.handshakes", current.peer_handshakes,
       reported_.peer_handshakes);
  bump("node.peer.pongs", current.peer_pongs, reported_.peer_pongs);
  bump("node.peer.missed", current.peer_missed, reported_.peer_missed);
  bump("node.peer.reconnects", current.peer_reconnects,
       reported_.peer_reconnects);
  bump("node.restored_pairs", current.restored_pairs,
       reported_.restored_pairs);
  bump("node.checkpoints", current.checkpoints, reported_.checkpoints);
  registry.gauge("node.connections")
      .set(static_cast<double>(shared_.peers.list()->size()));
  registry.gauge("node.rules")
      .set(static_cast<double>(shared_.hub->routing()->rules.num_rules()));
  const auto get = [](const std::atomic<std::uint64_t>& v) {
    return v.load(std::memory_order_relaxed);
  };
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const ShardStats& s = shards_[i]->stats();
    ShardReported& r = shard_reported_[i];
    bump(shard_metric(i, "messages_in"), get(s.messages_in), r.messages_in);
    bump(shard_metric(i, "bytes_in"), get(s.bytes_in), r.bytes_in);
    bump(shard_metric(i, "bytes_out"), get(s.bytes_out), r.bytes_out);
    bump(shard_metric(i, "relayed_in"), get(s.relayed_in), r.relayed_in);
    bump(shard_metric(i, "relay_expired"), get(s.relay_expired),
         r.relay_expired);
    bump(shard_metric(i, "pairs_mined"), get(s.pairs_mined), r.pairs_mined);
    registry.gauge(shard_metric(i, "connections"))
        .set(static_cast<double>(get(s.connections)));
  }
}

std::string Daemon::stats_text() const {
  NodeStats current;
  aggregate(current);
  std::ostringstream out;
  const auto line = [&out](const char* name, std::uint64_t value) {
    out << name << ' ' << value << '\n';
  };
  line("node.accepted", current.accepted);
  line("node.disconnects", current.disconnects);
  line("node.connections", shared_.peers.list()->size());
  line("node.bytes_in", current.bytes_in);
  line("node.bytes_out", current.bytes_out);
  line("node.messages_in", current.messages_in);
  line("node.malformed_frames", current.malformed_frames);
  line("node.queries_in", current.queries_in);
  line("node.hits_in", current.hits_in);
  line("node.pings_in", current.pings_in);
  line("node.dropped", current.dropped);
  line("node.queries_relayed", current.queries_relayed);
  line("node.hits_relayed", current.hits_relayed);
  line("node.rule_routed", current.rule_routed);
  line("node.flooded", current.flooded);
  line("node.routed_hits", current.routed_hits);
  line("node.pairs_mined", current.pairs_mined);
  line("node.snapshots", current.snapshots);
  line("node.rules", shared_.hub->routing()->rules.num_rules());
  line("node.send_retries", current.send_retries);
  line("node.send_timeouts", current.send_timeouts);
  line("node.degraded_floods", current.degraded_floods);
  line("node.admin_requests", current.admin_requests);
  line("node.peer.handshakes", current.peer_handshakes);
  line("node.peer.pongs", current.peer_pongs);
  line("node.peer.missed", current.peer_missed);
  line("node.peer.reconnects", current.peer_reconnects);
  line("node.restored_pairs", current.restored_pairs);
  line("node.checkpoints", current.checkpoints);
  char fraction[64];
  std::snprintf(fraction, sizeof fraction, "node.routed_hit_fraction %.6f\n",
                current.routed_hit_fraction());
  out << fraction << "end\n";
  return out.str();
}

std::string Daemon::metrics_json() {
  sync_metrics();
  std::ostringstream out;
  obs::Registry::global().write_json(out);
  out << '\n';
  return out.str();
}

}  // namespace aar::node
