#include "sim/engine.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <exception>
#include <iterator>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>

#include "obs/registry.hpp"

namespace aar::sim {

namespace {

constexpr std::uint64_t kNoBudget = std::numeric_limits<std::uint64_t>::max();

// Split-seed salts for the kSharded build (peer salts start high enough to
// never collide with the named streams).
constexpr std::uint64_t kCatalogueSalt = 0xA1;
constexpr std::uint64_t kWorkloadSalt = 0xA2;
constexpr std::uint64_t kPeerSaltBase = 0x100;

// Rounds with fewer queued events than this are routed inline even when a
// pool exists: the submit/wait barrier costs more than the work.  Purely a
// performance knob — parallel and inline rounds produce identical results.
constexpr std::size_t kParallelWidth = 64;

/// Fold one finished search into the process-wide overlay.* counters.
/// Bound once, bumped once per search — nothing obs-related runs per message.
void record_overlay_search(const overlay::SearchOutcome& outcome) {
  auto& registry = obs::Registry::global();
  static obs::Counter& searches = registry.counter("overlay.searches");
  static obs::Counter& hits = registry.counter("overlay.hits");
  static obs::Counter& queries = registry.counter("overlay.query_messages");
  static obs::Counter& replies = registry.counter("overlay.reply_messages");
  static obs::Counter& probes = registry.counter("overlay.probe_messages");
  static obs::Counter& fallbacks = registry.counter("overlay.flood_fallbacks");
  static obs::Counter& rule_routed = registry.counter("overlay.rule_routed");
  static obs::Counter& retry_attempts = registry.counter("overlay.retry.attempts");
  static obs::Counter& retry_timeouts = registry.counter("overlay.retry.timeouts");
  static obs::Counter& retry_degraded =
      registry.counter("overlay.retry.degraded_floods");
  static obs::Counter& retry_backoff =
      registry.counter("overlay.retry.backoff_stamps");
  searches.add(1);
  if (outcome.hit) hits.add(1);
  queries.add(outcome.query_messages);
  replies.add(outcome.reply_messages);
  probes.add(outcome.probe_messages);
  if (outcome.used_fallback) fallbacks.add(1);
  if (outcome.rule_routed) rule_routed.add(1);
  if (outcome.retries_used > 0) {
    retry_attempts.add(outcome.retries_used);
    if (!outcome.retry_stamps.empty()) {
      retry_backoff.add(outcome.retry_stamps.back());
    }
  }
  if (outcome.timed_out) retry_timeouts.add(1);
  if (outcome.degraded_to_flood) retry_degraded.add(1);
}

}  // namespace

Engine::Engine(const EngineConfig& config, overlay::Graph graph,
               overlay::PolicyFactory factory)
    : config_(config),
      graph_(std::move(graph)),
      rng_(config.build == EngineConfig::Build::kLegacy
               ? config.seed
               : split_seed(config.seed, kWorkloadSalt)),
      build_rng_(split_seed(config.seed, kCatalogueSalt)),
      catalogue_(config.content, config.build == EngineConfig::Build::kLegacy
                                     ? rng_
                                     : build_rng_),
      factory_(std::move(factory)) {
  const std::size_t n = graph_.num_nodes();
  threads_ = config_.threads != 0
                 ? config_.threads
                 : std::max<std::size_t>(1, std::thread::hardware_concurrency());
  shards_ = config_.shards != 0 ? config_.shards
                                : std::max<std::size_t>(8, threads_);
  shards_ = std::clamp<std::size_t>(shards_, 1, std::max<std::size_t>(1, n));
  // Workers beyond the shard count can never receive work.
  threads_ = std::clamp<std::size_t>(threads_, 1, shards_);
  // The calling thread routes one group of shards itself.
  if (threads_ > 1) pool_ = std::make_unique<util::ThreadPool>(threads_ - 1);
  shard_state_.resize(shards_);
  cursor_.assign(shards_, 0);

  std::optional<obs::Timer::Scope> build_scope;
  if (config_.engine_metrics) {
    auto& registry = obs::Registry::global();
    build_scope.emplace(registry.timer("sim.engine.build"));
    route_timer_ = &registry.timer("sim.engine.route");
    apply_timer_ = &registry.timer("sim.engine.apply");
  }
  profiles_.resize(n);
  row_stride_ = config_.files_per_node;
  store_rows_.resize(n * row_stride_);
  store_len_.assign(n, 0);
  if (config_.build == EngineConfig::Build::kLegacy) {
    build_peers_legacy();
  } else {
    build_peers_sharded();
  }
  build_holder_index();
  queued_.assign(n, 0);
  holder_stamp_.assign(n, 0);
  parent_.assign(n, overlay::kNoNode);
  // Policies are made after the stores; factories take no rng, so the order
  // does not touch the workload stream.
  policies_.resize(n);
  for (NodeId node = 0; node < n; ++node) install_policy(node, factory_(node));
}

void Engine::check_node(NodeId node) const {
  if (node >= num_nodes()) {
    throw std::out_of_range("sim::Engine: node id " + std::to_string(node) +
                            " out of range (" + std::to_string(num_nodes()) +
                            " peers)");
  }
}

void Engine::write_row(NodeId node, const workload::LocalStore& store) {
  // populate() never yields more than files_per_node files.
  const auto begin = store_rows_.begin() +
                     static_cast<std::ptrdiff_t>(std::size_t{node} * row_stride_);
  const auto end = std::copy(store.files().begin(), store.files().end(), begin);
  std::sort(begin, end);
  store_len_[node] = static_cast<std::uint32_t>(end - begin);
}

void Engine::build_holder_index() {
  // Exact-size build: count each file's holders, reserve, then fill in
  // node order.
  std::vector<std::uint32_t> count(catalogue_.size(), 0);
  for (NodeId node = 0; node < num_nodes(); ++node) {
    for (const workload::FileId file : row(node)) ++count[file];
  }
  holders_.resize(count.size());
  for (std::size_t file = 0; file < count.size(); ++file) {
    holders_[file].reserve(count[file]);
  }
  for (NodeId node = 0; node < num_nodes(); ++node) {
    for (const workload::FileId file : row(node)) {
      holders_[file].push_back(node);
    }
  }
}

void Engine::build_peers_legacy() {
  // One workload rng, profile then store per node.  populate()'s draw count
  // depends on the evolving set membership, so it must run against a real
  // LocalStore; the result is copied into the node's sorted store row
  // afterwards.
  const std::size_t n = graph_.num_nodes();
  for (std::size_t node = 0; node < n; ++node) {
    profiles_[node] = workload::InterestProfile::sample(
        rng_, config_.content.categories, config_.interest_breadth);
    workload::LocalStore store;
    store.populate(catalogue_, profiles_[node], config_.files_per_node, rng_);
    write_row(static_cast<NodeId>(node), store);
  }
}

void Engine::build_peers_sharded() {
  // Split-seed construction: each peer draws from its own stream, so the
  // result is a pure function of (seed, node) — independent of the shard
  // count, the thread count, and the build order.  Each task writes only its
  // own node's row.
  const std::size_t n = graph_.num_nodes();
  const std::uint64_t seed = config_.seed;
  util::parallel_for(
      0, n,
      [&](std::size_t node) {
        util::Rng prng(split_seed(seed, kPeerSaltBase + node));
        profiles_[node] = workload::InterestProfile::sample(
            prng, config_.content.categories, config_.interest_breadth);
        workload::LocalStore store;
        store.populate(catalogue_, profiles_[node], config_.files_per_node,
                       prng);
        write_row(static_cast<NodeId>(node), store);
      },
      threads_);
}

bool Engine::store_has(NodeId node, workload::FileId file) const {
  check_node(node);
  const std::span<const workload::FileId> files = row(node);
  return std::binary_search(files.begin(), files.end(), file);
}

std::size_t Engine::store_size(NodeId node) const {
  check_node(node);
  return store_len_[node];
}

std::span<const workload::FileId> Engine::store(NodeId node) const {
  check_node(node);
  return row(node);
}

const workload::InterestProfile& Engine::profile(NodeId node) const {
  check_node(node);
  return profiles_[node];
}

std::span<const NodeId> Engine::holders(workload::FileId file) const {
  if (file >= holders_.size()) return {};
  return holders_[file];
}

bool Engine::add_link(NodeId a, NodeId b) {
  check_node(a);
  check_node(b);
  return graph_.add_edge(a, b);
}

overlay::RoutingPolicy& Engine::policy(NodeId node) {
  check_node(node);
  return *policies_[node];
}

void Engine::set_policy(NodeId node,
                        std::unique_ptr<overlay::RoutingPolicy> policy) {
  check_node(node);
  install_policy(node, std::move(policy));
}

void Engine::install_policy(NodeId node,
                            std::unique_ptr<overlay::RoutingPolicy> policy) {
  if (policy == nullptr) {
    throw std::invalid_argument("sim::Engine: null policy for peer " +
                                std::to_string(node));
  }
  if (policies_[node] != nullptr && policies_[node]->allows_revisit()) {
    --revisiting_;
  }
  if (policy->allows_revisit()) ++revisiting_;
  const auto at =
      std::lower_bound(learns_any_.begin(), learns_any_.end(), node);
  const bool listed = at != learns_any_.end() && *at == node;
  if (policy->learns_only_neighbors()) {
    if (listed) learns_any_.erase(at);
  } else if (!listed) {
    learns_any_.insert(at, node);
  }
  policies_[node] = std::move(policy);
}

void Engine::replace_peer(NodeId node, std::size_t attach) {
  // One shared workload rng in both build modes, so churn is thread/shard
  // independent.
  check_node(node);
  std::vector<NodeId> orphaned(graph_.neighbors(node).begin(),
                               graph_.neighbors(node).end());
  graph_.detach(node);
  std::size_t linked = 0;
  std::size_t attempts = 0;
  while (linked < attach && attempts++ < 16 * attach) {
    const auto target = static_cast<NodeId>(rng_.below(num_nodes()));
    if (graph_.add_edge(node, target)) ++linked;
  }
  // Overlay maintenance: peers that lost the link re-open a connection so
  // the network does not thin out under sustained churn.
  for (NodeId neighbor : orphaned) {
    if (graph_.degree(neighbor) >= attach) continue;
    for (int attempt = 0; attempt < 16; ++attempt) {
      const auto target = static_cast<NodeId>(rng_.below(num_nodes()));
      if (graph_.add_edge(neighbor, target)) break;
    }
  }
  profiles_[node] = workload::InterestProfile::sample(
      rng_, config_.content.categories, config_.interest_breadth);
  workload::LocalStore store;
  store.populate(catalogue_, profiles_[node], config_.files_per_node, rng_);
  for (const workload::FileId file : row(node)) {
    std::vector<NodeId>& holders = holders_[file];
    const auto it = std::find(holders.begin(), holders.end(), node);
    assert(it != holders.end());
    *it = holders.back();
    holders.pop_back();
  }
  write_row(node, store);
  for (const workload::FileId file : row(node)) {
    holders_[file].push_back(node);
  }
  install_policy(node, factory_(node));
  // Every other peer's learned state about the departed one — mined rule
  // consequents, shortcut entries — names a NodeId that now belongs to a
  // stranger.  Only the former neighbours and the peers whose policy can
  // learn any id may hold some (docs/SIMULATION.md, "Churn in place"); each
  // is purged once, in ascending id order as a sweep of every peer would
  // go: the last rule snapshot a purge takes sets the mining.antecedents
  // gauge.
  std::sort(orphaned.begin(), orphaned.end());
  purge_scratch_.clear();
  std::set_union(orphaned.begin(), orphaned.end(), learns_any_.begin(),
                 learns_any_.end(), std::back_inserter(purge_scratch_));
  for (const NodeId peer : purge_scratch_) {
    if (peer != node) policies_[peer]->on_peer_departed(node);
  }
  // The replacement joins healthy regardless of its predecessor's state.
  if (faults_ != nullptr) faults_->on_peer_replaced(node);
  if (config_.engine_metrics) {
    obs::Registry::global().counter("sim.engine.churned").add(1);
  }
}

void Engine::churn(std::size_t count, std::size_t attach) {
  for (std::size_t i = 0; i < count; ++i) {
    replace_peer(static_cast<NodeId>(rng_.below(num_nodes())), attach);
  }
}

workload::FileId Engine::sample_target(NodeId origin) {
  check_node(origin);
  const workload::Category category = profiles_[origin].sample_category(rng_);
  return catalogue_.sample_in(category, rng_);
}

void Engine::next_stamp() {
  if (++stamp_ == 0) {  // wrapped: reset versioned scratch state
    std::fill(queued_.begin(), queued_.end(), 0u);
    std::fill(holder_stamp_.begin(), holder_stamp_.end(), 0u);
    stamp_ = 1;
  }
}

Engine::ReplyResult Engine::deliver_reply(const overlay::Query& query,
                                          NodeId server) {
  // Gnutella routes QueryHits back along the reverse query path; parent_ is
  // exactly that GUID routing table for the current pass.  Every node on the
  // path observes the (antecedent, consequent) pair and lets its policy learn
  // from it — unless the reply is lost mid-path, in which case the nodes past
  // the loss (and the origin) never see it.
  ReplyResult result;
  NodeId downstream = server;
  NodeId node = parent_[server];
  while (downstream != query.origin) {
    assert(node != overlay::kNoNode);
    ++result.messages;  // downstream -> node
    if (faults_ != nullptr && faults_->reply_lost(downstream, node)) {
      ++result.dropped;
      result.delivered = false;
      return result;
    }
    const NodeId upstream = node == query.origin ? node : parent_[node];
    policies_[node]->on_reply_path(query, node, upstream, downstream);
    downstream = node;
    node = upstream;
  }
  return result;
}

void Engine::push_event(std::uint64_t slot, const QueryEvent& event) {
  assert(static_cast<std::size_t>(slot) < order_.capacity_slots());
  if (!revisit_pass_ && !earliest_push(slot, event.node)) {
    ++settled_[slot];  // a duplicate skips the queues
    return;
  }
  const std::uint32_t s = shard_of(event.node);
  shard_state_[s].queue.push(slot, event);
  order_.push(slot, OrderEntry{s, settled_[slot]});
}

void Engine::process_shard_round(Shard& shard, std::uint64_t now,
                                 const overlay::Query& query,
                                 bool force_flood) {
  // PARALLEL phase: pure per-peer work for this shard's slot.  Writes touch
  // only state owned by this shard's peers (parent is indexed by the
  // event's node, and shard_of(node) routed the event here) plus the
  // shard-local results/emissions buffers.  No rng, no metrics, no
  // cross-peer mutation — all of that happens in the serial apply phase.
  shard.results.clear();
  shard.emissions.clear();
  const std::uint64_t first_mark = queue_mark(now);
  for (const QueryEvent& ev : shard.queue.at(now)) {
    EventResult r;
    // Only the peer's earliest queued message, due now, is a first visit.
    const bool first_visit = queued_[ev.node] == first_mark;
    if (first_visit) {
      r.flags |= EventResult::kFirstVisit;
      if (visit(ev)) r.flags |= EventResult::kHit;
    } else {
      // Duplicate suppressed (no peer revisits in this pass): an
      // earlier-arriving message to this peer was queued after this one.
      shard.results.push_back(r);
      continue;
    }
    if (ev.ttl == 0) {
      shard.results.push_back(r);
      continue;
    }
    r.flags |= EventResult::kRouted;
    // Policies append straight into the shard's emissions: this event's
    // targets are the tail from emit_offset on.
    r.emit_offset = static_cast<std::uint32_t>(shard.emissions.size());
    bool directed = false;
    if (force_flood) {
      for (NodeId neighbor : graph_.neighbors(ev.node)) {
        if (neighbor != ev.from) shard.emissions.push_back(neighbor);
      }
    } else {
      // No shared rng in the parallel phase: route() gets a throwaway
      // stream split from (guid, self), which keeps any draw (random-k
      // association routing draws) deterministic and per-peer.
      util::Rng scratch(split_seed(query.guid, ev.node));
      directed = policies_[ev.node]->route(query, ev.node, ev.from,
                                           graph_.neighbors(ev.node), scratch,
                                           shard.emissions);
    }
    if (directed) r.flags |= EventResult::kDirected;
    shard.emissions.erase(
        std::remove(shard.emissions.begin() + r.emit_offset,
                    shard.emissions.end(), ev.node),
        shard.emissions.end());
    r.emit_count =
        static_cast<std::uint32_t>(shard.emissions.size()) - r.emit_offset;
    shard.results.push_back(r);
  }
}

void Engine::route_round(std::uint64_t now, const overlay::Query& query,
                         bool force_flood) {
  // Group g routes shards [g * shards / threads, (g + 1) * shards / threads);
  // the calling thread takes group 0.
  const auto route_group = [&](std::size_t g) {
    for (std::size_t s = g * shards_ / threads_;
         s < (g + 1) * shards_ / threads_; ++s) {
      process_shard_round(shard_state_[s], now, query, force_flood);
    }
  };
  std::size_t queued = 0;
  for (Shard& shard : shard_state_) queued += shard.queue.at(now).size();
  if (pool_ == nullptr || queued < kParallelWidth) {
    for (std::size_t g = 0; g < threads_; ++g) route_group(g);
    return;
  }
  for (std::size_t g = 1; g < threads_; ++g) {
    pool_->submit([&route_group, g] { route_group(g); });
  }
  std::exception_ptr error;
  try {
    route_group(0);
  } catch (...) {
    error = std::current_exception();
  }
  pool_->wait();  // the submitted groups reference this frame
  if (error != nullptr) std::rethrow_exception(error);
}

void Engine::apply_round(std::uint64_t now, const overlay::Query& query,
                         NodeId origin, PassState& st) {
  // SERIAL phase: replay the slot in push order — the order log names the
  // shard of each event, and each shard's slot and results are in push
  // order — and perform the order-sensitive work in (time, send order).
  // Settled messages leave the frontier where they sit in push order, so
  // every forward() sees the frontier a message-by-message walk would.
  std::fill(cursor_.begin(), cursor_.end(), 0);
  std::size_t settled_hit = 0;
  std::uint32_t settled = 0;
  for (const OrderEntry entry : order_.at(now)) {
    st.frontier_size -= 1 + (entry.settled_before - settled);
    settled = entry.settled_before;
    if (entry.shard == OrderEntry::kSettledHit) {
      answer(query, origin, settled_hits_.at(now)[settled_hit++], st);
      continue;
    }
    const std::uint32_t s = entry.shard;
    Shard& shard = shard_state_[s];
    const std::size_t i = cursor_[s]++;
    const QueryEvent& ev = shard.queue.at(now)[i];
    const EventResult r = shard.results[i];

    if ((r.flags & EventResult::kFirstVisit) != 0) ++st.pass.nodes_reached;
    if ((r.flags & EventResult::kHit) != 0) answer(query, origin, ev, st);
    if ((r.flags & EventResult::kRouted) == 0) continue;
    forward(now, origin, ev,
            std::span<const NodeId>(shard.emissions.data() + r.emit_offset,
                                    r.emit_count),
            (r.flags & EventResult::kDirected) != 0, st);
  }
  st.frontier_size -= settled_[now] - settled;
}

void Engine::revisit_round(std::uint64_t now, const overlay::Query& query,
                           NodeId origin, PassState& st) {
  // A pass with revisiting peers has no parallel phase: whether a walker
  // routes depends on pass.hit as set by the events before it, and routing
  // draws from the shared rng.  Every message was queued; walk the slot in
  // push order and do each event's whole work here (nothing is settled).
  std::fill(cursor_.begin(), cursor_.end(), 0);
  // Idle in a revisiting pass: there is no parallel phase.
  std::vector<NodeId>& targets = shard_state_.front().emissions;
  for (const OrderEntry entry : order_.at(now)) {
    --st.frontier_size;
    const std::uint32_t s = entry.shard;
    const QueryEvent ev = shard_state_[s].queue.at(now)[cursor_[s]++];
    const bool revisits = policies_[ev.node]->allows_revisit();
    if (queued_[ev.node] < queue_mark(0)) {  // first visit this pass
      queued_[ev.node] = queue_mark(now);
      ++st.pass.nodes_reached;
      if (visit(ev)) answer(query, origin, ev, st);
    } else if (!revisits) {
      continue;  // duplicate suppressed
    }
    if (ev.ttl == 0) continue;
    // Walkers emulate the "check back with the originator" termination of
    // k-random walks: once the query is answered, they stop forwarding.
    if (st.pass.hit && revisits) continue;
    targets.clear();
    const bool directed = policies_[ev.node]->route(
        query, ev.node, ev.from, graph_.neighbors(ev.node), rng_, targets);
    std::erase(targets, ev.node);
    forward(now, origin, ev, targets, directed, st);
  }
}

void Engine::answer(const overlay::Query& query, NodeId origin,
                    const QueryEvent& ev, PassState& st) {
  ++st.pass.replicas_found;
  bool delivered = true;
  if (ev.node != origin) {
    const ReplyResult reply = deliver_reply(query, ev.node);
    st.pass.reply_messages += reply.messages;
    st.pass.dropped += reply.dropped;
    delivered = reply.delivered;
  }
  if (delivered && !st.pass.hit) {
    st.pass.hit = true;
    st.pass.hops_to_first_hit = ev.depth;
    st.pass.first_server = ev.node;
  }
}

void Engine::forward(std::uint64_t now, NodeId origin, const QueryEvent& ev,
                     std::span<const NodeId> targets, bool directed,
                     PassState& st) {
  if (ev.node == origin && ev.depth == 0) st.origin_decision = directed;
  st.any_directed = st.any_directed || directed;
  if (ev.ttl == 1 && !revisit_pass_) {
    settle_final_hops(now, ev, targets, st);
  } else {
    for (const NodeId target : targets) {
      ++st.pass.query_messages;
      fault::ForwardVerdict verdict;
      if (faults_ != nullptr) {
        verdict = faults_->on_forward(ev.node, target);
        if (verdict.dropped) {
          ++st.pass.dropped;
          continue;  // sent, lost in transit
        }
      }
      send(now, ev, target, verdict, st);
    }
  }
  st.frontier_peak =
      std::max(st.frontier_peak, static_cast<std::size_t>(st.frontier_size));
}

void Engine::settle_final_hops(std::uint64_t now, const QueryEvent& ev,
                               std::span<const NodeId> targets,
                               PassState& st) {
  // Each hop is due next round, and no later push can arrive sooner: the
  // recipient's earliest queued message is its first visit, and it has
  // nothing to route.  Visit it now; only a hit's answer waits for its
  // place in the log, and only that answer's reply reads the hop's
  // reverse-path parent.  A delayed or duplicated hop is pushed as any
  // other.  Past the budget every hop is in flight when the pass ends: none
  // touches slot `next`, which may lie past the pass's calendar.
  fault::FaultInjector* const faults = faults_.get();
  const std::uint64_t next = now + 1;
  const bool late = next > st.budget;
  std::uint64_t queries = 0;
  std::uint64_t dropped = 0;
  std::uint32_t reached = 0;
  std::uint64_t sent = 0;
  std::uint32_t settled = late ? 0 : settled_[next];
  for (const NodeId target : targets) {
    ++queries;
    fault::ForwardVerdict verdict;
    if (faults != nullptr) {
      verdict = faults->on_forward(ev.node, target);
      if (verdict.dropped) {
        ++dropped;
        continue;  // sent, lost in transit
      }
    }
    if (late) {
      st.pass.truncated = true;  // still in flight when the budget runs out
      continue;
    }
    if (!verdict.plain()) {
      settled_[next] = settled;  // a duplicate copy counts there
      send(now, ev, target, verdict, st);
      settled = settled_[next];
      continue;
    }
    ++sent;
    // First visits and duplicates interleave unpredictably: test both
    // marks without a branch, and branch only on a likely hit.
    const bool first = earliest_push(next, target);
    const bool holds = holder_stamp_[target] == stamp_;
    reached += first ? 1u : 0u;
    if ((first & holds) && serves(target)) {
      parent_[target] = ev.node;
      settled_hits_.push(next, QueryEvent{target, ev.node, ev.depth + 1, 0});
      order_.push(next, OrderEntry{OrderEntry::kSettledHit, settled});
    } else {
      ++settled;
    }
  }
  if (!late) settled_[next] = settled;
  st.pass.query_messages += queries;
  st.pass.dropped += dropped;
  st.pass.nodes_reached += reached;
  st.frontier_size += sent;
}

void Engine::send(std::uint64_t now, const QueryEvent& ev, NodeId target,
                  const fault::ForwardVerdict& verdict, PassState& st) {
  const std::uint64_t arrival = now + 1 + verdict.delay;
  if (arrival > st.budget) {
    st.pass.truncated = true;  // still in flight when the budget runs out
    return;
  }
  const QueryEvent hop{target, ev.node, ev.depth + 1, ev.ttl - 1};
  if (verdict.duplicated) {
    ++st.pass.query_messages;  // the duplicate is a real extra message
    push_event(arrival, hop);
    ++st.frontier_size;
  }
  push_event(arrival, hop);
  ++st.frontier_size;
}

Engine::PassOutcome Engine::run_pass(const overlay::Query& query, NodeId origin,
                                     std::uint32_t ttl, bool force_flood,
                                     std::uint64_t budget) {
  next_stamp();
  PassState st;
  st.budget = budget;
  // Chosen once per pass: a forced flood never revisits.
  revisit_pass_ = !force_flood && revisiting_ > 0;
  for (const NodeId holder : holders(query.target)) {
    holder_stamp_[holder] = stamp_;
  }

  // Horizon: the largest arrival stamp any message of this pass can carry.
  // Each hop costs 1 stamp plus at most (max_delay + slow_extra) fault
  // stamps, and depth + ttl is invariant, so arrivals never exceed
  // ttl * hop_max — and never the budget, past which pushes are truncated.
  std::uint64_t hop_max = 1;
  if (faults_ != nullptr) {
    hop_max += std::uint64_t{faults_->plan().max_delay} +
               faults_->plan().slow_extra;
  }
  const std::uint64_t horizon = std::min(budget, std::uint64_t{ttl} * hop_max);
  const auto slots = static_cast<std::size_t>(horizon) + 1;
  order_.ensure(slots);
  if (settled_.size() < slots) settled_.resize(slots, 0);
  settled_hits_.ensure(slots);
  for (Shard& shard : shard_state_) shard.queue.ensure(slots);

  push_event(0, QueryEvent{origin, origin, 0, ttl});
  st.frontier_size = 1;

  using Clock = std::chrono::steady_clock;
  const bool timed = route_timer_ != nullptr;
  Clock::duration route_time{};
  Clock::duration apply_time{};
  std::uint64_t rounds = 0;
  std::uint64_t events = 0;
  for (std::uint64_t now = 0; now <= horizon && st.frontier_size > 0; ++now) {
    const std::size_t width = order_.at(now).size() + settled_[now];
    if (width == 0) continue;
    st.pass.elapsed = now;
    ++rounds;
    events += width;

    const Clock::time_point start = timed ? Clock::now() : Clock::time_point{};
    if (!revisit_pass_) route_round(now, query, force_flood);
    const Clock::time_point routed = timed ? Clock::now() : Clock::time_point{};
    if (revisit_pass_) {
      revisit_round(now, query, origin, st);
    } else {
      apply_round(now, query, origin, st);
    }
    if (timed) {
      route_time += routed - start;
      apply_time += Clock::now() - routed;
    }
    order_.at(now).clear();
    settled_[now] = 0;
    settled_hits_.at(now).clear();
    for (Shard& shard : shard_state_) shard.queue.at(now).clear();
  }

  static obs::Histogram& peak_hist = obs::Registry::global().histogram(
      "overlay.frontier_peak", 0.0, 1024.0, 64);
  peak_hist.observe(static_cast<double>(st.frontier_peak));
  if (config_.engine_metrics) {
    auto& registry = obs::Registry::global();
    registry.counter("sim.engine.rounds").add(rounds);
    registry.counter("sim.engine.events").add(events);
    const auto ns = [](Clock::duration d) {
      return static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
    };
    route_timer_->record_ns(ns(route_time));
    apply_timer_->record_ns(ns(apply_time));
  }
  st.pass.origin_rule_routed = st.origin_decision && !force_flood;
  st.pass.any_rule_routed = st.any_directed && !force_flood;
  return st.pass;
}

void Engine::record(const overlay::SearchOutcome& outcome) {
  record_overlay_search(outcome);
  if (config_.engine_metrics) {
    obs::Registry::global().counter("sim.engine.searches").add(1);
  }
}

overlay::SearchOutcome Engine::search(NodeId origin, workload::FileId target,
                                      const overlay::SearchOptions& options) {
  check_node(origin);
  const std::uint32_t ttl =
      options.ttl != 0 ? options.ttl : config_.default_ttl;
  ++search_clock_;
  if (faults_ != nullptr) faults_->begin_search(search_clock_);

  overlay::Query query;
  query.guid = next_guid_++;
  query.target = target;
  query.category = catalogue_.category_of(target);
  query.origin = origin;

  overlay::SearchOutcome outcome;

  // A crashed origin issues nothing (its user is gone too); the workload
  // drivers still count the search so success rates reflect the outage.
  if (faults_ != nullptr && faults_->crashed(origin)) {
    record(outcome);
    return outcome;
  }

  // Phase A: direct shortcut probes, if the origin's policy keeps any.
  probe_scratch_.clear();
  policies_[origin]->probe_candidates(query, origin, probe_scratch_);
  for (NodeId candidate : probe_scratch_) {
    outcome.probe_messages += 2;  // request + response
    if (candidate < num_nodes() && store_has(candidate, target)) {
      if (faults_ != nullptr && faults_->probe_lost(origin, candidate)) {
        continue;  // unanswered: crashed/free-riding/severed peer or loss
      }
      outcome.hit = true;
      outcome.hops_to_first_hit = 1;
      outcome.replicas_found = 1;
      outcome.rule_routed = true;
      policies_[origin]->on_search_result(query, origin, true, candidate);
      record(outcome);
      return outcome;
    }
  }

  auto merge = [&outcome](const PassOutcome& pass) {
    outcome.query_messages += pass.query_messages;
    outcome.reply_messages += pass.reply_messages;
    outcome.dropped_messages += pass.dropped;
    outcome.nodes_reached = std::max(outcome.nodes_reached, pass.nodes_reached);
    if (pass.hit && !outcome.hit) {
      outcome.hit = true;
      outcome.hops_to_first_hit = pass.hops_to_first_hit;
    }
    outcome.replicas_found =
        std::max(outcome.replicas_found, pass.replicas_found);
  };

  const std::uint64_t timeout =
      options.timeout_stamps == 0 ? kNoBudget : options.timeout_stamps;
  std::uint64_t now = 0;
  bool budget_exhausted = false;
  NodeId server = overlay::kNoNode;

  if (options.mode == overlay::SearchMode::kExpandingRing) {
    // Lv et al.: successively larger flooding rings until something answers.
    std::uint32_t ring = 1;
    for (;;) {
      const PassOutcome pass =
          run_pass(query, origin, ring, /*force_flood=*/true,
                   timeout == kNoBudget ? kNoBudget : timeout - now);
      merge(pass);
      now += pass.elapsed;
      if (pass.hit) {
        server = pass.first_server;
        break;
      }
      if (pass.truncated || now >= timeout) {
        budget_exhausted = true;
        break;
      }
      if (ring >= ttl) break;
      ring = std::min(ttl, ring * 2);
    }
  } else if (options.max_retries == 0) {
    // Single pass with the paper's flood-on-miss escape hatch.
    const PassOutcome pass =
        run_pass(query, origin, ttl, /*force_flood=*/false, timeout);
    merge(pass);
    now += pass.elapsed;
    outcome.rule_routed = pass.origin_rule_routed && pass.query_messages > 0;
    server = pass.first_server;
    budget_exhausted = pass.truncated;
    // Retry by flooding when the query missed and *any* node narrowed its
    // propagation (a pure flood that missed has already seen everything —
    // retrying it cannot help).
    const bool fallback_wanted =
        options.flood_fallback || policies_[origin]->wants_flood_fallback();
    if (!pass.hit && fallback_wanted && pass.any_rule_routed &&
        !budget_exhausted) {
      const PassOutcome retry =
          run_pass(query, origin, ttl, /*force_flood=*/true,
                   timeout == kNoBudget ? kNoBudget : timeout - now);
      merge(retry);
      now += retry.elapsed;
      outcome.used_fallback = true;
      server = retry.first_server;
      budget_exhausted = retry.truncated;
    }
  } else {
    // Retry ladder: primary policy pass, widened top-k re-probes with
    // exponential backoff and jitter, then one final forced flood.
    const std::uint32_t attempts = 1 + options.max_retries;
    for (std::uint32_t attempt = 0; attempt < attempts; ++attempt) {
      if (attempt > 0) {
        std::uint64_t backoff = std::max<std::uint64_t>(
            1, std::uint64_t{options.backoff_base} << (attempt - 1));
        if (options.backoff_jitter > 0) {
          // Jitter draws from the fault rng when installed so the workload
          // stream stays untouched.
          util::Rng& jitter_rng = faults_ != nullptr ? faults_->rng() : rng_;
          backoff +=
              jitter_rng.below(std::uint64_t{options.backoff_jitter} + 1);
        }
        if (now + backoff >= timeout) {
          // The deadline passes mid-backoff: the search ends AT the budget,
          // never past it.
          now = timeout;
          budget_exhausted = true;
          break;
        }
        now += backoff;
        outcome.retry_stamps.push_back(now);
        ++outcome.retries_used;
      }
      const bool final_flood = attempt > 0 && attempt + 1 == attempts;
      query.widen = final_flood ? 0 : attempt * options.widen_per_retry;
      const PassOutcome pass =
          run_pass(query, origin, ttl, final_flood,
                   timeout == kNoBudget ? kNoBudget : timeout - now);
      merge(pass);
      now += pass.elapsed;
      if (attempt == 0) {
        outcome.rule_routed = pass.origin_rule_routed && pass.query_messages > 0;
      }
      if (final_flood) {
        outcome.degraded_to_flood = true;
        outcome.used_fallback = true;
      }
      if (pass.hit) {
        server = pass.first_server;
        break;
      }
      if (pass.truncated || now >= timeout) {
        budget_exhausted = true;
        break;
      }
    }
  }

  outcome.elapsed_stamps = now;
  outcome.timed_out = !outcome.hit && budget_exhausted;
  policies_[origin]->on_search_result(query, origin, outcome.hit, server);
  record(outcome);
  return outcome;
}

}  // namespace aar::sim
