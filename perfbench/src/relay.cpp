// Node workloads: an open-loop, causal load generator driving an in-process
// node::Daemon over loopback (relay-small, relay-churn-persist), plus the
// isolated per-layer calls of the traced run.
//
// The generator is one thread with four neighbour connections.  Queries are
// due on a fixed schedule (open loop) and each is stamped with its due time.
// Every host has a stable home connection that holds its content; the holder
// answers only after the relayed query reached it, so a query the daemon
// rule-routes away from the holder gets no hit and counts against success.
// Latency runs from a frame's due time to the arrival of its relayed copy:
// the first copy at any neighbour for a query, the copy at the query's
// origin for a hit (whose due time is the moment its query arrived).

#include "workloads.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#include <arpa/inet.h>
#include <fcntl.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <exception>
#include <filesystem>
#include <mutex>
#include <optional>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/forwarder.hpp"
#include "core/ruleset.hpp"
#include "gnutella/capture.hpp"
#include "gnutella/codec.hpp"
#include "lsm/store.hpp"
#include "mining/incremental_miner.hpp"
#include "node/daemon.hpp"
#include "node/snapshot.hpp"
#include "store/writer.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using aar::gnutella::MessageType;
using aar::gnutella::NeighborId;

constexpr std::size_t kConns = 4;
constexpr std::uint32_t kHosts = 32;
constexpr std::uint8_t kTtl = 4;
constexpr std::size_t kHeader = aar::gnutella::Header::kSize;
constexpr double kWarmupSeconds = 0.25;
/// Latency samples per tail window (windowed_percentile): about 50 ms of
/// samples at the reference rate, and p99 of a window has ten beyond it.
/// Short windows keep a virtual CPU's preemption by the host (gaps of up to
/// tens of milliseconds, several a second) out of most windows.
constexpr std::size_t kTailWindow = 1'000;
constexpr double kLevelSeconds = 0.6;
constexpr std::size_t kReferenceParts = 5;
constexpr double kCoarseStep = 1.5;
constexpr double kFineStep = 1.07;
constexpr double kMaxLadderFps = 2e6;

struct Profile {
  std::size_t threads = 1;
  bool persist = false;
  std::uint32_t checkpoint_ms = 0;
  std::size_t window = 4096;
  std::size_t rebuild_every = 64;
  std::size_t hit_results = 1;
  std::size_t name_length = 0;  ///< hit file-name padding (0 = short names)
  std::size_t churn_every = 0;  ///< queries between reconnects; 0 = none
  double reference_fps = 0.0;
  /// Offered-rate ladder: a coarse geometric grid from `ladder_start_fps`,
  /// refined by a finer one above the highest coarse rate that passed.
  double ladder_start_fps = 0.0;
  double p99_limit_us = 0.0;
};

Profile profile_of(const std::string& workload) {
  Profile p;
  if (workload == "relay-churn-persist") {
    p.threads = 2;
    p.persist = true;
    p.checkpoint_ms = 100;
    p.window = 10'000;
    p.rebuild_every = 16;
    p.hit_results = 24;
    p.name_length = 32;
    p.churn_every = 2'000;
    p.reference_fps = 10'000;
    p.ladder_start_fps = 10'000;
    p.p99_limit_us = 2'000;
    return p;
  }
  p.reference_fps = 20'000;
  p.ladder_start_fps = 20'000;
  p.p99_limit_us = 2'000;
  return p;
}

/// Stable host -> home structure: a host sends from connection host % 4;
/// of an origin's eight hosts five keep their content behind the next
/// connection, two behind the one after, one behind the last.  The mined
/// top-2 rules therefore cover 7/8 of an origin's queries.
std::size_t home_of(std::uint32_t host) {
  const std::size_t origin = host % kConns;
  const std::uint32_t j = host / kConns;
  const std::size_t step = j < 5 ? 1 : (j < 7 ? 2 : 3);
  return (origin + step) % kConns;
}

/// A host's search string ("q<key>") and, with prefix 'f', its file name.
std::string keyed(char prefix, std::uint32_t host) {
  std::string text(1, prefix);
  text += std::to_string(host * 31 + 7);
  return text;
}

struct Templates {
  std::vector<std::vector<std::uint8_t>> query;  ///< per host, zero GUID
  std::vector<std::vector<std::uint8_t>> hit;
};

Templates make_templates(const Profile& p) {
  Templates t;
  for (std::uint32_t host = 0; host < kHosts; ++host) {
    const std::uint32_t key = host * 31 + 7;
    t.query.push_back(aar::gnutella::serialize(aar::gnutella::make_query(
        aar::gnutella::WireGuid{}, kTtl, 0, keyed('q', host))));
    std::vector<aar::gnutella::HitResult> results;
    for (std::size_t r = 0; r < p.hit_results; ++r) {
      std::string name = keyed('f', host);
      if (p.name_length > 0) {
        name += '-';
        name += std::to_string(r);
        name += '-';
        name.resize(p.name_length, 'x');
      }
      results.push_back(aar::gnutella::HitResult{
          .file_index = key * 64 + static_cast<std::uint32_t>(r),
          .file_size = 1 + static_cast<std::uint32_t>(r),
          .file_name = std::move(name)});
    }
    t.hit.push_back(aar::gnutella::serialize(aar::gnutella::make_query_hit(
        aar::gnutella::WireGuid{}, kTtl, aar::gnutella::make_wire_guid(host),
        std::move(results))));
  }
  return t;
}

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    throw std::runtime_error("connect to daemon failed");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  return fd;
}

std::uint64_t load_le64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, 8);
  return v;
}

/// A daemon running on its own control thread for the life of the object.
class LiveDaemon {
 public:
  explicit LiveDaemon(aar::node::NodeConfig config)
      : daemon_(std::move(config)), thread_([this] {
          try {
            daemon_.run();
          } catch (...) {
            error_ = std::current_exception();
          }
        }) {}
  ~LiveDaemon() { stop(); }
  LiveDaemon(const LiveDaemon&) = delete;
  LiveDaemon& operator=(const LiveDaemon&) = delete;

  aar::node::Daemon& operator*() { return daemon_; }
  aar::node::Daemon* operator->() { return &daemon_; }

  /// Stop serving and join; rethrows a failure of run().
  void stop() {
    if (!thread_.joinable()) return;
    daemon_.stop();
    thread_.join();
    if (error_) std::rethrow_exception(error_);
  }

 private:
  aar::node::Daemon daemon_;
  std::exception_ptr error_;
  std::thread thread_;  // last: starts after the daemon exists
};

/// Everything one daemon lifetime produced.
struct Phase {
  double setup_s = 0.0;
  double send_s = 0.0;
  std::uint64_t queries = 0;
  std::uint64_t hits = 0;
  std::uint64_t frames = 0;
  std::uint64_t lost = 0;  ///< queries never relayed + hits never delivered
  std::uint64_t measured_queries = 0;
  std::uint64_t measured_success = 0;
  std::uint64_t measured_copies = 0;
  std::vector<double> latency_us;
  std::vector<double> lag_us;
  std::uint64_t backlog_max = 0;
  bool backlog_grew = false;
  bool aborted = false;  ///< stopped sending: backlog beyond a quarter second
  std::uint64_t violations = 0;  ///< TTL/hops, payload, misroute, duplicate
  std::uint64_t malformed = 0;
  bool quiesced = true;
  std::uint64_t churns = 0;
  aar::node::NodeStats stats;
  std::string rules;
  ThreadCounters counters;
  std::uint64_t processed = 0;
  std::uint64_t daemon_allocs = 0;
  std::uint64_t daemon_sends = 0;
  std::uint64_t daemon_recvs = 0;
  bool archive_checked = false;
  bool archive_ok = true;
  // Captured inputs for the traced run's isolated calls.
  std::vector<std::vector<std::uint8_t>> sent_bytes;  ///< per connection
  std::vector<NeighborId> query_origin;                ///< per query, in order
  std::vector<aar::trace::QueryReplyPair> pairs;       ///< daemon-mined joins
  std::vector<NeighborId> live_ids;

  [[nodiscard]] double fps() const {
    return send_s > 0 ? static_cast<double>(frames) / send_s : 0.0;
  }
};

class Generator {
 public:
  Generator(const Profile& profile, const Templates& templates, double fps,
            double seconds, std::uint64_t seed, std::string state_dir,
            bool capture, std::vector<pid_t> helper_tids)
      : helper_tids_(std::move(helper_tids)),
        p_(profile),
        t_(templates),
        capture_(capture),
        period_ns_(static_cast<std::int64_t>(2e9 / fps)),
        n_(static_cast<std::size_t>(seconds * fps / 2.0)),
        first_measured_(static_cast<std::size_t>(kWarmupSeconds * fps / 2.0)),
        state_dir_(std::move(state_dir)) {
    aar::util::Rng rng(seed);
    salt_ = rng();
    const auto setup_start = Clock::now();
    // Stratified host order: every run of 32 consecutive queries asks from
    // each host once, in a seeded order.  Any window of pairs then holds the
    // homes in their 5:2:1 proportions, so the first mined rules never rank
    // the rarest home above the second and lock it in.
    q_.resize(n_);
    std::uint8_t round[kHosts];
    for (std::size_t i = 0; i < n_; ++i) {
      if (i % kHosts == 0) {
        for (std::uint32_t h = 0; h < kHosts; ++h) round[h] = static_cast<std::uint8_t>(h);
        std::shuffle(std::begin(round), std::end(round), rng);
      }
      q_[i].host = round[i % kHosts];
    }
    aar::node::NodeConfig config;
    config.threads = p_.threads;
    config.window = p_.window;
    config.rebuild_every = p_.rebuild_every;
    config.min_support = 2;
    config.top_k = 2;
    config.state_dir = state_dir_;
    config.checkpoint_ms = p_.checkpoint_ms;
    daemon_ = std::make_unique<LiveDaemon>(config);
    for (std::size_t k = 0; k < kConns; ++k) dial(k);
    out_.setup_s = seconds_since(setup_start);
    if (capture_) out_.sent_bytes.resize(kConns);
  }

  ~Generator() {
    for (Conn& c : conns_) {
      if (c.fd >= 0) ::close(c.fd);
    }
  }
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  Phase run() {
    const pid_t self = current_tid();
    std::vector<pid_t> not_daemon = helper_tids_;
    not_daemon.push_back(self);
    const auto counters_start = read_threads(not_daemon);
    const SlotCounts slots_start = counts_except(self);
    processed_base_ = (*daemon_)->messages_processed();

    t0_ = now_ns() + 1'000'000;  // first query due 1 ms from now
    // A backlog of a quarter second of offered frames cannot be a burst:
    // stop sending, the rate is over capacity.
    const auto abort_backlog = std::max<std::uint64_t>(
        1'000, static_cast<std::uint64_t>(0.5e9 / static_cast<double>(period_ns_)));
    std::int64_t next_sample = t0_;
    std::size_t next = 0;
    const auto churn_due = [&] {
      return p_.churn_every > 0 && next > 0 && next % p_.churn_every == 0 &&
             churned_at_ != next;
    };
    while (next < n_) {
      if (churn_due()) {
        churned_at_ = next;
        if (!churn(out_.churns % kConns)) break;
        ++out_.churns;
      }
      const std::int64_t now = now_ns();
      while (next < n_ && due(next) <= now && !churn_due()) {
        send_query(next, now);
        ++next;
      }
      if (now >= next_sample) {
        const std::uint64_t backlog = backlog_now();
        backlog_.push_back(backlog);
        out_.backlog_max = std::max(out_.backlog_max, backlog);
        next_sample = now + 1'000'000;
        if (backlog > abort_backlog) {
          out_.aborted = true;
          break;
        }
      }
      flush_all();
      // Poll without sleeping: a sleeping generator wakes late (tens to
      // hundreds of microseconds on a virtual machine) and would send late.
      pump(0);
    }
    out_.send_s = static_cast<double>(now_ns() - t0_) / 1e9;
    out_.quiesced = quiesce(std::chrono::seconds(10));

    out_.processed = (*daemon_)->messages_processed() - processed_base_;
    out_.counters = delta(counters_start, read_threads(not_daemon));
    const SlotCounts slots_end = counts_except(self);
    out_.daemon_allocs = slots_end.allocs - slots_start.allocs;
    out_.daemon_sends = slots_end.sends - slots_start.sends;
    out_.daemon_recvs = slots_end.recvs - slots_start.recvs;
    out_.rules = (*daemon_)->rules_text();
    for (const Conn& c : conns_) out_.live_ids.push_back(c.id);
    daemon_->stop();
    out_.stats = (*daemon_)->stats();
    daemon_.reset();

    std::uint64_t unrelayed = 0;
    for (std::size_t i = 0; i < out_.queries; ++i) {
      if (q_[i].mask == 0) ++unrelayed;
    }
    out_.lost = unrelayed + (out_.hits - delivered_);
    out_.measured_queries =
        out_.queries > first_measured_ ? out_.queries - first_measured_ : 0;
    out_.backlog_grew = out_.aborted || grew();
    if (p_.persist) check_archive();
    return std::move(out_);
  }

 private:
  struct QState {
    std::int64_t due = 0;
    std::int64_t hit_sent = 0;  ///< 0 = holder never answered
    std::uint8_t host = 0;
    std::uint8_t mask = 0;      ///< connections that received a copy
    bool delivered = false;
  };

  struct Conn {
    int fd = -1;
    NeighborId id = 0;
    std::vector<std::uint8_t> out;
    std::size_t out_off = 0;
    std::vector<std::uint8_t> in;
    std::size_t in_off = 0;
  };

  [[nodiscard]] std::int64_t due(std::size_t i) const {
    return t0_ + static_cast<std::int64_t>(i) * period_ns_;
  }

  [[nodiscard]] std::uint64_t backlog_now() const {
    const std::uint64_t done =
        (*daemon_)->messages_processed() - processed_base_;
    return out_.frames > done ? out_.frames - done : 0;
  }

  void dial(std::size_t k) {
    const std::uint64_t want = ++accepted_;
    conns_[k].fd = connect_loopback((*daemon_)->port());
    conns_[k].id = static_cast<NeighborId>(want);
    // Connect one at a time so neighbour ids follow connection order.
    const auto give_up = Clock::now() + std::chrono::seconds(5);
    while ((*daemon_)->stats().accepted < want) {
      if (Clock::now() > give_up) throw std::runtime_error("daemon never accepted");
      std::this_thread::yield();
    }
  }

  void append(std::size_t k, const std::vector<std::uint8_t>& tpl,
              std::size_t i) {
    Conn& c = conns_[k];
    const std::size_t at = c.out.size();
    c.out.insert(c.out.end(), tpl.begin(), tpl.end());
    const std::uint64_t index = i;
    std::memcpy(c.out.data() + at, &index, 8);
    std::memcpy(c.out.data() + at + 8, &salt_, 8);
    ++out_.frames;
    if (capture_) {
      out_.sent_bytes[k].insert(out_.sent_bytes[k].end(), c.out.begin() + static_cast<std::ptrdiff_t>(at),
                                c.out.end());
    }
  }

  void send_query(std::size_t i, std::int64_t now) {
    QState& q = q_[i];
    q.due = due(i);
    const std::size_t origin = q.host % kConns;
    append(origin, t_.query[q.host], i);
    ++out_.queries;
    out_.lag_us.push_back(static_cast<double>(now - q.due) / 1e3);
    if (capture_) out_.query_origin.push_back(conns_[origin].id);
  }

  void send_hit(std::size_t i, std::size_t k, std::int64_t now) {
    QState& q = q_[i];
    q.hit_sent = now;
    append(k, t_.hit[q.host], i);
    ++out_.hits;
    if (capture_) {
      aar::gnutella::WireGuid wire{};
      const std::uint64_t index = i;
      std::memcpy(wire.data(), &index, 8);
      std::memcpy(wire.data() + 8, &salt_, 8);
      out_.pairs.push_back(aar::trace::QueryReplyPair{
          .time = static_cast<double>(out_.pairs.size() + 1),
          .guid = aar::gnutella::fold_guid(wire),
          .source_host = conns_[q.host % kConns].id,
          .replying_neighbor = conns_[k].id,
          .query = aar::gnutella::normalize_query(keyed('q', q.host)),
      });
    }
  }

  void flush_all() {
    for (Conn& c : conns_) {
      while (c.out_off < c.out.size()) {
        const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                                 c.out.size() - c.out_off, MSG_NOSIGNAL);
        if (n > 0) {
          c.out_off += static_cast<std::size_t>(n);
          continue;
        }
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        throw std::runtime_error("send to daemon failed");
      }
      if (c.out_off == c.out.size()) {
        c.out.clear();
        c.out_off = 0;
      }
    }
  }

  /// Wait up to `wait_ns` for input, read everything readable, handle it.
  /// Returns the bytes read.
  std::size_t pump(std::int64_t wait_ns) {
    pollfd fds[kConns];
    for (std::size_t k = 0; k < kConns; ++k) {
      fds[k].fd = conns_[k].fd;
      fds[k].events = static_cast<short>(
          POLLIN | (conns_[k].out_off < conns_[k].out.size() ? POLLOUT : 0));
      fds[k].revents = 0;
    }
    const timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                      static_cast<long>(wait_ns % 1'000'000'000)};
    const int ready = ::ppoll(fds, kConns, &ts, nullptr);
    if (ready <= 0) return 0;
    std::size_t total = 0;
    for (std::size_t k = 0; k < kConns; ++k) {
      if ((fds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      total += read_conn(k);
    }
    return total;
  }

  std::size_t read_conn(std::size_t k) {
    Conn& c = conns_[k];
    std::size_t total = 0;
    for (;;) {
      const ssize_t n = ::recv(c.fd, read_buf_.data(), read_buf_.size(), 0);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        break;  // EAGAIN, or EOF (a daemon never closes on us mid-phase)
      }
      c.in.insert(c.in.end(), read_buf_.begin(), read_buf_.begin() + n);
      total += static_cast<std::size_t>(n);
      parse(k);
      if (static_cast<std::size_t>(n) < read_buf_.size()) break;
    }
    return total;
  }

  void parse(std::size_t k) {
    Conn& c = conns_[k];
    const std::int64_t now = now_ns();
    while (c.in.size() - c.in_off >= kHeader) {
      const std::uint8_t* h = c.in.data() + c.in_off;
      std::uint32_t len = 0;
      std::memcpy(&len, h + 19, 4);
      if (len > aar::gnutella::kMaxPayload) {
        // Cannot resynchronise a stream with a bogus length: drop it all.
        ++out_.malformed;
        c.in_off = c.in.size();
        break;
      }
      if (c.in.size() - c.in_off < kHeader + len) break;
      on_frame(k, h, len, now);
      c.in_off += kHeader + len;
    }
    if (c.in_off == c.in.size()) {
      c.in.clear();
      c.in_off = 0;
    } else if (c.in_off > (1u << 20)) {
      c.in.erase(c.in.begin(), c.in.begin() + static_cast<std::ptrdiff_t>(c.in_off));
      c.in_off = 0;
    }
  }

  void on_frame(std::size_t k, const std::uint8_t* h, std::uint32_t len,
                std::int64_t now) {
    const std::uint64_t i = load_le64(h);
    if (load_le64(h + 8) != salt_ || i >= out_.queries) {
      ++out_.malformed;
      return;
    }
    QState& q = q_[i];
    const auto type = static_cast<MessageType>(h[16]);
    const std::uint8_t ttl = h[17];
    const std::uint8_t hops = h[18];
    if (ttl + hops != kTtl || hops < 1) ++out_.violations;
    const std::vector<std::uint8_t>* tpl = nullptr;
    if (type == MessageType::kQuery) {
      tpl = &t_.query[q.host];
    } else if (type == MessageType::kQueryHit) {
      tpl = &t_.hit[q.host];
    } else {
      ++out_.malformed;
      return;
    }
    if (tpl->size() != kHeader + len ||
        std::memcmp(tpl->data() + kHeader, h + kHeader, len) != 0) {
      ++out_.violations;  // payload changed in relay
    }
    const bool measured = i >= first_measured_;
    const std::size_t origin = q.host % kConns;
    if (type == MessageType::kQuery) {
      const auto bit = static_cast<std::uint8_t>(1u << k);
      if (k == origin || (q.mask & bit) != 0) ++out_.violations;
      if (q.mask == 0 && measured) {
        out_.latency_us.push_back(static_cast<double>(now - q.due) / 1e3);
      }
      q.mask |= bit;
      if (measured) ++out_.measured_copies;
      if (k == home_of(q.host) && q.hit_sent == 0) send_hit(i, k, now);
      return;
    }
    if (k != origin || q.delivered || q.hit_sent == 0) {
      ++out_.violations;
      return;
    }
    q.delivered = true;
    ++delivered_;
    if (measured) {
      out_.latency_us.push_back(static_cast<double>(now - q.hit_sent) / 1e3);
      ++out_.measured_success;
    }
  }

  /// Drain until everything sent was processed, relayed and answered.
  bool quiesce(std::chrono::milliseconds budget) {
    const auto give_up = Clock::now() + budget;
    int idle_rounds = 0;
    while (Clock::now() < give_up) {
      flush_all();
      const std::size_t got = pump(200'000);
      bool pending_out = false;
      for (const Conn& c : conns_) pending_out |= c.out_off < c.out.size();
      const bool settled = !pending_out && got == 0 && backlog_now() == 0 &&
                           all_resolved();
      idle_rounds = settled ? idle_rounds + 1 : 0;
      if (idle_rounds >= 3) return true;
    }
    return false;
  }

  [[nodiscard]] bool all_resolved() {
    // Every query sent has a relayed copy and every hit sent arrived.
    while (resolved_ < out_.queries && q_[resolved_].mask != 0 &&
           (q_[resolved_].hit_sent == 0 || q_[resolved_].delivered)) {
      ++resolved_;
    }
    return resolved_ == out_.queries;
  }

  /// Close connection `k` at a quiescent point and dial a replacement.  The
  /// schedule is shifted by the pause: the quiescence is the benchmark's own
  /// bookkeeping, not relay latency.
  bool churn(std::size_t k) {
    const std::int64_t pause_start = now_ns();
    if (!quiesce(std::chrono::seconds(5))) {
      out_.quiesced = false;
      return false;
    }
    ::close(conns_[k].fd);
    conns_[k].fd = -1;
    conns_[k].in.clear();
    conns_[k].in_off = 0;
    ++disconnects_;
    const auto give_up = Clock::now() + std::chrono::seconds(5);
    while ((*daemon_)->stats().disconnects < disconnects_) {
      if (Clock::now() > give_up) {
        out_.quiesced = false;
        return false;
      }
      std::this_thread::yield();
    }
    dial(k);
    t0_ += now_ns() - pause_start;
    return true;
  }

  [[nodiscard]] bool grew() const {
    // A system that keeps up holds its backlog to bursts; one that cannot
    // falls behind linearly.  "Grew" = still more than 10 ms of offered
    // frames behind, on average, over the last tenth of the sending period.
    if (backlog_.size() < 10) return false;
    const std::size_t tail = backlog_.size() / 10;
    double sum = 0;
    for (std::size_t i = backlog_.size() - tail; i < backlog_.size(); ++i) {
      sum += static_cast<double>(backlog_[i]);
    }
    const double limit = std::max(256.0, 2e7 / static_cast<double>(period_ns_));
    return sum / static_cast<double>(tail) > limit;
  }

  void check_archive() {
    std::int64_t sum = 0;
    {
      const aar::lsm::Store archive(state_dir_ + "/archive");
      for (const auto& entry : archive.entries()) sum += entry.count;
    }
    out_.archive_checked = true;
    out_.archive_ok = sum == static_cast<std::int64_t>(out_.stats.pairs_mined);
  }

  const std::vector<pid_t> helper_tids_;
  const Profile& p_;
  const Templates& t_;
  const bool capture_;
  const std::int64_t period_ns_;  ///< between query due times
  const std::size_t n_;
  const std::size_t first_measured_;
  const std::string state_dir_;
  std::uint64_t salt_ = 0;
  std::vector<QState> q_;
  std::unique_ptr<LiveDaemon> daemon_;
  Conn conns_[kConns];
  std::uint64_t accepted_ = 0;
  std::uint64_t disconnects_ = 0;
  std::uint64_t processed_base_ = 0;
  std::uint64_t delivered_ = 0;
  std::size_t resolved_ = 0;
  std::size_t churned_at_ = 0;
  std::int64_t t0_ = 0;
  std::vector<std::uint64_t> backlog_;  ///< sampled every millisecond
  std::vector<std::uint8_t> read_buf_ = std::vector<std::uint8_t>(256u << 10);
  Phase out_;
};

/// The reference-rate phases of one run, pooled.
struct Reference {
  std::vector<double> part_p50_us;  ///< per phase
  std::vector<double> part_p99_us;  ///< per phase, windowed
  std::vector<double> latency_us;
  std::vector<double> lag_us;
  std::uint64_t measured_queries = 0;
  std::uint64_t measured_success = 0;
  std::uint64_t measured_copies = 0;
  std::uint64_t frames = 0;
  std::uint64_t lost = 0;
  std::uint64_t churns = 0;
  double send_s = 0.0;
  double rss_mb = 0.0;

  void add(const Phase& phase) {
    part_p50_us.push_back(percentile(phase.latency_us, 50.0));
    part_p99_us.push_back(windowed_percentile(phase.latency_us, 99.0, kTailWindow));
    latency_us.insert(latency_us.end(), phase.latency_us.begin(), phase.latency_us.end());
    lag_us.insert(lag_us.end(), phase.lag_us.begin(), phase.lag_us.end());
    measured_queries += phase.measured_queries;
    measured_success += phase.measured_success;
    measured_copies += phase.measured_copies;
    frames += phase.frames;
    lost += phase.lost;
    churns += phase.churns;
    send_s += phase.send_s;
  }
  [[nodiscard]] double fps() const {
    return send_s > 0 ? static_cast<double>(frames) / send_s : 0.0;
  }
};

Phase run_phase(const Profile& p, const Templates& t, double fps,
                double seconds, std::uint64_t seed, const RunArgs& args,
                std::size_t index, bool capture) {
  std::string state_dir;
  if (p.persist) {
    state_dir = args.work_dir + "/state-" + std::to_string(index);
    remove_tree(state_dir);
  }
  Generator generator(p, t, fps, seconds, seed, state_dir, capture,
                      args.helper_tids);
  Phase phase = generator.run();
  if (!state_dir.empty()) remove_tree(state_dir);
  return phase;
}

void check_phase(const Phase& phase, const std::string& label, Outcome& out) {
  out.attempted += phase.frames;
  out.failed += phase.lost;
  out.check(phase.violations == 0,
            label + ": relayed frames kept TTL+hops and payload");
  out.check(phase.malformed == 0, label + ": no malformed relayed frame");
  out.check(phase.quiesced, label + ": every frame was relayed or answered");
  if (phase.archive_checked) {
    out.check(phase.archive_ok,
              label + ": reopened archive counts sum to pairs_mined");
  }
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

// --------------------------------------------------------------- untraced

void run_relay(const RunArgs& args, Outcome& out) {
  const Profile p = profile_of(args.workload);
  const Templates templates = make_templates(p);
  std::vector<double> setups;

  // Reference rate: latency, success, fan-out and memory, measured in
  // kReferenceParts short phases spread between the ladder's levels so the
  // figures average over the whole run rather than one stretch of it.
  const double part_s =
      std::max(1.0, args.seconds * 0.4 / static_cast<double>(kReferenceParts));
  Reference ref;
  std::size_t parts = 0;
  const auto reference_part = [&] {
    if (parts == kReferenceParts) return;
    Phase phase = run_phase(p, templates, p.reference_fps, part_s,
                            args.seed + 1000 * (parts + 1), args, 0, false);
    check_phase(phase, "reference", out);
    setups.push_back(phase.setup_s);
    ref.add(phase);
    if (++parts == 1) ref.rss_mb = peak_rss_mb();
  };
  reference_part();

  // Ladder of fixed offered rates: coarse steps of x1.5 until two in a row
  // miss a limit, then every step of x1.07 between the highest coarse pass
  // and the next coarse rate.  The highest rate that passed wins, and a rate
  // passes when either of two attempts does, so a level spoiled by a burst
  // of host noise does not decide the result.
  double sustained = 0.0;
  double sustained_offered = 0.0;
  std::size_t levels = 0;
  const auto attempt = [&](double fps) {
    reference_part();
    ++levels;
    const Phase phase = run_phase(p, templates, fps, kLevelSeconds,
                                  args.seed + levels, args, levels, false);
    check_phase(phase, "rate " + std::to_string(fps), out);
    setups.push_back(phase.setup_s);
    const double p99 = windowed_percentile(phase.latency_us, 99.0, kTailWindow);
    const bool pass =
        p99 <= p.p99_limit_us && !phase.backlog_grew && phase.lost == 0;
    const std::string prefix = "ladder." + std::to_string(levels);
    out.note(prefix + ".offered_fps", fps, "frames/s");
    out.note(prefix + ".p50_us", percentile(phase.latency_us, 50.0), "us");
    out.note(prefix + ".p99_us", p99, pass ? "us (pass)" : "us (fail)");
    out.note(prefix + ".fps", phase.fps(), "frames/s");
    out.note(prefix + ".backlog_max", static_cast<double>(phase.backlog_max), "frames");
    if (pass && fps > sustained_offered) {
      sustained = phase.fps();
      sustained_offered = fps;
    }
    return pass;
  };
  // A rate that misses a limit gets a second attempt on a fresh daemon.
  const auto level = [&](double fps) { return attempt(fps) || attempt(fps); };
  int misses = 0;
  double coarse = p.ladder_start_fps;
  for (; misses < 2 && coarse <= kMaxLadderFps; coarse *= kCoarseStep) {
    misses = level(coarse) ? 0 : misses + 1;
  }
  if (sustained_offered > 0) {
    const double ceiling = sustained_offered * kCoarseStep;
    for (double fine = sustained_offered * kFineStep; fine < ceiling * 0.999;
         fine *= kFineStep) {
      (void)level(fine);
    }
  }
  while (parts < kReferenceParts) reference_part();
  if (sustained == 0.0) {
    // Not even the lowest rate met the limits: report what it carried.
    sustained = ref.fps();
  }

  // Latency: the median over the reference phases of each phase's p50 and
  // (windowed) p99, so a phase that met a burst of host noise does not set
  // the run's figure.
  const double p50 = median(ref.part_p50_us);
  const double p99 = median(ref.part_p99_us);
  const double success = ratio(static_cast<double>(ref.measured_success),
                               static_cast<double>(ref.measured_queries));
  const double fanout = ratio(static_cast<double>(ref.measured_copies),
                              static_cast<double>(ref.measured_queries));
  out.metric("throughput_per_s", sustained, "1/s");
  out.metric("latency_p50_us", p50, "us");
  out.metric("latency_p99_us", p99, "us");
  out.metric("success_share", success, "share");
  out.metric("overhead_per_op", fanout, "count");
  out.metric("setup_s", median(setups), "s");
  out.metric("peak_rss_mb", ref.rss_mb, "MB");

  out.note("sustained_fps", sustained, "frames/s");
  out.note("sustained_offered_fps", sustained_offered, "frames/s");
  out.note("relay_p50_us", p50, "us");
  out.note("relay_p99_us", p99, "us");
  out.note("relay_p99_pooled_us", percentile(ref.latency_us, 99.0), "us");
  for (std::size_t i = 0; i < ref.part_p99_us.size(); ++i) {
    out.note("reference." + std::to_string(i + 1) + ".p99_us", ref.part_p99_us[i], "us");
  }
  out.note("latency_samples", static_cast<double>(ref.latency_us.size()), "count");
  out.note("query_success", success, "share");
  out.note("fanout_per_query", fanout, "count");
  out.note("loss_share",
           ratio(static_cast<double>(ref.lost), static_cast<double>(ref.frames)),
           "share");
  out.note("reference_fps", p.reference_fps, "frames/s");
  out.note("ladder_levels", static_cast<double>(levels), "count");
  out.note("generator_lag_p99_us", percentile(ref.lag_us, 99.0), "us");
  out.note("setup_samples", static_cast<double>(setups.size()), "count");
  out.note("churn_reconnects", static_cast<double>(ref.churns), "count");
}

// ----------------------------------------------------------------- traced

void trace_node_layers(const RunArgs& args, const std::string& workload,
                       Tracer& tracer, Outcome& out) {
  const Profile p = profile_of(workload);
  const Templates templates = make_templates(p);
  const double seconds = std::clamp(args.seconds * 0.2, 1.0, 3.0);
  const Phase phase = run_phase(p, templates, p.reference_fps, seconds,
                                args.seed, args, 0, /*capture=*/true);
  check_phase(phase, "traced reference", out);

  // Daemon-side work counted from outside the program.
  const double frames = static_cast<double>(phase.processed);
  const ThreadCounters& c = phase.counters;
  // read/write syscalls: /proc's syscr/syscw (eventfd wake-ups, files) plus
  // the socket recv/send calls counted in this binary.
  out.metric("node.read_syscalls_per_frame",
             ratio(static_cast<double>(c.syscr + phase.daemon_recvs), frames), "count");
  out.metric("node.write_syscalls_per_frame",
             ratio(static_cast<double>(c.syscw + phase.daemon_sends), frames), "count");
  out.metric("node.cpu_us_per_frame",
             ratio(static_cast<double>(c.cpu_ticks) * 1e6 / ticks_per_second(), frames), "us");
  out.metric("node.ctx_switches_per_kframe",
             ratio(static_cast<double>(c.ctx_switches) * 1e3, frames), "count");
  out.metric("node.allocs_per_frame", ratio(static_cast<double>(phase.daemon_allocs), frames),
             "count");
  out.metric("node.backlog_frames_max", static_cast<double>(phase.backlog_max), "count");
  const aar::node::NodeStats& s = phase.stats;
  const double queries_in = static_cast<double>(s.queries_in);
  out.metric("node.rule_routed_share", ratio(static_cast<double>(s.rule_routed), queries_in), "share");
  out.metric("node.degraded_flood_share",
             ratio(static_cast<double>(s.degraded_floods), queries_in), "share");
  out.metric("node.routed_hit_fraction", s.routed_hit_fraction(), "share");
  out.metric("node.drop_share",
             ratio(static_cast<double>(s.dropped), static_cast<double>(s.messages_in)), "share");
  out.metric("bench.generator_lag_p99_us", percentile(phase.lag_us, 99.0), "us");
  out.metric("bench.latency_samples", static_cast<double>(phase.latency_us.size()), "count");
  out.metric("bench.loss_share",
             ratio(static_cast<double>(phase.lost), static_cast<double>(phase.frames)), "share");

  // Isolated calls fed with the frames and pairs the live run carried.
  std::size_t wire_bytes = 0;
  for (const auto& bytes : phase.sent_bytes) wire_bytes += bytes.size();
  const aar::core::RuleSet rules = [&] {
    std::istringstream in(phase.rules);
    return aar::core::RuleSet::load(in);
  }();
  const auto index_of = [](const aar::gnutella::Message& m) {
    return load_le64(m.header.guid.data());
  };
  std::vector<aar::gnutella::Message> decoded;
  std::uint64_t codec_allocs = 0;
  std::uint64_t table_ops = 0;
  std::uint64_t table_entries = 0;
  std::uint64_t queries = 0;
  std::uint64_t mined = 0;
  const std::string lsm_dir = args.work_dir + "/lsm-layers";
  measure_twice(tracer, [&] {
    decoded.clear();
    decoded.reserve(phase.frames);
    codec_allocs = 0;
    // gnutella: decode each connection's stream a read's worth at a time.
    for (const auto& stream : phase.sent_bytes) {
      aar::gnutella::FrameDecoder decoder;
      for (std::size_t at = 0; at < stream.size(); at += 64u << 10) {
        const std::size_t len = std::min<std::size_t>(64u << 10, stream.size() - at);
        const std::uint64_t before = allocs_this_thread();
        {
          const Tracer::Scope span(tracer, "gnutella.FrameDecoder.feed");
          decoder.feed({stream.data() + at, len});
        }
        for (;;) {
          std::optional<aar::gnutella::Message> message;
          {
            const Tracer::Scope span(tracer, "gnutella.FrameDecoder.next");
            message = decoder.next();
          }
          if (!message) break;
          decoded.push_back(std::move(*message));
        }
        codec_allocs += allocs_this_thread() - before;
      }
    }
    // gnutella: serialize each frame as relayed (TTL - 1, hops + 1).
    for (aar::gnutella::Message& m : decoded) {
      --m.header.ttl;
      ++m.header.hops;
      const std::uint64_t before = allocs_this_thread();
      {
        const Tracer::Scope span(tracer, "gnutella.serialize", index_of(m));
        const auto bytes = aar::gnutella::serialize(m);
        if (bytes.empty()) throw std::runtime_error("empty frame");
      }
      codec_allocs += allocs_this_thread() - before;
      ++m.header.ttl;
      --m.header.hops;
    }
    // node: QueryTable stripe ops (insert at query, lookup at hit) and core:
    // the route decision on the daemon's published rules.
    aar::node::QueryTable table;
    const aar::core::Forwarder forwarder(aar::core::ForwarderConfig{.k = 2});
    aar::util::Rng rng(args.seed);
    table_ops = 0;
    table_entries = 0;
    queries = 0;
    // Queries first, then hits: the streams were decoded per connection, and
    // a hit must find the entry its query made.
    for (const aar::gnutella::Message& m : decoded) {
      if (m.header.type != MessageType::kQuery) continue;
      const std::uint64_t i = index_of(m);
      const std::uint64_t guid = aar::gnutella::fold_guid(m.header.guid);
      const NeighborId from = phase.query_origin.at(i);
      ++table_ops;
      ++queries;
      {
        const Tracer::Scope span(tracer, "node.QueryTable.insert", i);
        auto& stripe = table.stripe(guid);
        const std::lock_guard<std::mutex> lock(stripe.mu);
        const auto [it, fresh] = stripe.map.try_emplace(
            guid, aar::node::QueryState{
                      .from = from,
                      .key = aar::gnutella::normalize_query(m.query.search),
                      .rule_routed = false,
                      .minable = true});
        if (fresh) ++table_entries;
      }
      const Tracer::Scope span(tracer, "core.Forwarder.decide", i);
      const auto decision = forwarder.decide(rules, from, rng);
      if (!decision.flood && decision.targets.empty()) {
        throw std::runtime_error("rule decision without targets");
      }
    }
    for (const aar::gnutella::Message& m : decoded) {
      if (m.header.type != MessageType::kQueryHit) continue;
      const std::uint64_t guid = aar::gnutella::fold_guid(m.header.guid);
      ++table_ops;
      const Tracer::Scope span(tracer, "node.QueryTable.find", index_of(m));
      auto& stripe = table.stripe(guid);
      const std::lock_guard<std::mutex> lock(stripe.mu);
      if (stripe.map.find(guid) == stripe.map.end()) {
        throw std::runtime_error("hit without its query");
      }
    }
    // node: MiningHub merges over the daemon-mined pairs, a disconnect
    // purge, and a checkpoint (window dump + aartr write + archive flush);
    // lsm: the archive's adds.
    aar::node::PeerDirectory directory;
    for (const NeighborId id : phase.live_ids) {
      (void)directory.add(id, static_cast<std::uint32_t>((id - 1) % p.threads));
    }
    const std::shared_ptr<const aar::node::PeerList> live = directory.list();
    aar::node::MiningHub hub(
        aar::mining::MinerConfig{.window = p.window, .min_support = 2},
        p.rebuild_every, p.threads);
    std::vector<aar::node::ShardWindow> windows(p.threads);
    remove_tree(lsm_dir);
    aar::lsm::Store archive(lsm_dir);
    mined = 0;
    for (const aar::trace::QueryReplyPair& pair : phase.pairs) {
      const std::size_t shard = (pair.replying_neighbor - 1) % p.threads;
      windows[shard].append(pair);
      {
        const Tracer::Scope span(tracer, "lsm.Store.add", pair.guid);
        archive.add(pair.source_host, pair.replying_neighbor, 1);
      }
      ++mined;
      if (hub.note_pair()) {
        const Tracer::Scope span(tracer, "node.MiningHub.merge");
        hub.merge(windows, *live);
      }
    }
    {
      const Tracer::Scope span(tracer, "node.checkpoint");
      std::vector<aar::trace::QueryReplyPair> window;
      {
        const Tracer::Scope dump(tracer, "node.MiningHub.window_pairs");
        window = hub.window_pairs();
      }
      {
        const Tracer::Scope write(tracer, "node.checkpoint.write");
        aar::store::write_pairs_file(args.work_dir + "/window.aartr", window);
      }
      const Tracer::Scope flush(tracer, "lsm.Store.flush");
      archive.flush();
    }
    {
      const Tracer::Scope span(tracer, "node.MiningHub.purge");
      hub.purge(phase.live_ids.front());
    }
  });

  const auto self = tracer.self_ns();
  const auto self_of = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  const auto ms_of = [&](const char* name) {
    std::vector<double> ms;
    for (const double ns : tracer.durations_ns(name)) ms.push_back(ns / 1e6);
    return ms;
  };
  const double n_frames = static_cast<double>(decoded.size());
  out.metric("gnutella.decode_ns_per_frame",
             ratio(self_of("gnutella.FrameDecoder.feed") + self_of("gnutella.FrameDecoder.next"),
                   n_frames),
             "ns");
  out.metric("gnutella.encode_ns_per_frame", ratio(self_of("gnutella.serialize"), n_frames), "ns");
  out.metric("gnutella.allocs_per_frame", ratio(static_cast<double>(codec_allocs), n_frames),
             "count");
  out.metric("gnutella.wire_bytes_per_frame",
             ratio(static_cast<double>(wire_bytes), static_cast<double>(phase.frames)), "B");
  out.metric("node.query_table_ns_per_op",
             ratio(self_of("node.QueryTable.insert") + self_of("node.QueryTable.find"),
                   static_cast<double>(table_ops)),
             "ns");
  out.metric("node.query_table_entries", static_cast<double>(table_entries), "count");
  out.metric("core.decide_ns_per_query",
             ratio(self_of("core.Forwarder.decide"), static_cast<double>(queries)), "ns");
  out.metric("core.rules", static_cast<double>(rules.num_rules()), "count");
  const auto merge_ms = ms_of("node.MiningHub.merge");
  out.metric("node.merges", static_cast<double>(merge_ms.size()), "count");
  out.metric("node.merge_ms_p50", percentile(merge_ms, 50.0), "ms");
  out.metric("node.merge_ms_max", percentile(merge_ms, 100.0), "ms");
  out.metric("node.purge_ms", percentile(ms_of("node.MiningHub.purge"), 100.0), "ms");
  out.metric("node.checkpoint_ms", percentile(ms_of("node.checkpoint"), 100.0), "ms");
  out.metric("lsm.add_ns_per_pair",
             ratio(self_of("lsm.Store.add"), static_cast<double>(mined)), "ns");
  out.metric("lsm.flush_ms", percentile(ms_of("lsm.Store.flush"), 100.0), "ms");
  {
    const aar::lsm::Store archive(lsm_dir);
    out.metric("lsm.entries", static_cast<double>(archive.entries().size()), "count");
  }
  out.metric("lsm.bytes_on_disk", static_cast<double>(dir_bytes(lsm_dir)), "B");
  remove_tree(lsm_dir);
  std::filesystem::remove(args.work_dir + "/window.aartr");
}

}  // namespace perfbench
