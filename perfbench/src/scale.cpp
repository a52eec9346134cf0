// sim-100k / sim-20k: the overlay simulator at 100k or 20k peers
// (association policy, TTL 4, 2% message loss, 0.1% crashed peers, churn
// between epochs, 2 threads).
//
// The timed loop replays sim::run_scale's schedule through the public
// sim::Engine API so that every search can be timed on its own; the first
// overlay's outcome hash must equal run_scale's at one thread, which checks
// both the replay and the engine's thread invariance.

#include "workloads.hpp"

#include <memory>

#include "fault/fault.hpp"
#include "overlay/fault_experiment.hpp"
#include "overlay/topology.hpp"
#include "sim/engine.hpp"
#include "sim/scale.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

aar::sim::ScaleConfig scale_config(std::uint64_t seed, std::size_t nodes) {
  aar::sim::ScaleConfig config;
  config.seed = seed;
  config.nodes = nodes;
  config.policy = "association";
  config.ttl = 4;
  config.warmup = 200;
  config.searches = 400;
  config.epochs = 3;
  config.churn = nodes / 1000;
  config.drop = 0.02;
  config.crashed = nodes / 1000;
  config.threads = 2;
  return config;
}

struct SimRun {
  double build_s = 0.0;
  double run_s = 0.0;
  std::vector<double> search_us;
  std::uint64_t searches = 0;
  std::uint64_t hits = 0;
  std::uint64_t messages = 0;
  std::uint64_t dropped = 0;
  std::uint64_t reached = 0;
  std::uint64_t hash = 0;
};

/// run_scale's construction and schedule, with each measured search timed
/// (and traced when `tracer` is on).
SimRun drive(const aar::sim::ScaleConfig& config, Tracer& tracer) {
  namespace sim = aar::sim;
  namespace overlay = aar::overlay;
  SimRun run;
  const auto build_start = Clock::now();
  std::unique_ptr<sim::Engine> engine;
  {
    const Tracer::Scope span(tracer, "sim.build");
    aar::util::Rng topo_rng(config.seed);
    overlay::Graph graph =
        overlay::make_barabasi_albert(config.nodes, config.attach, topo_rng);
    sim::EngineConfig engine_config;
    engine_config.seed = config.seed + 1;
    engine_config.build = sim::EngineConfig::Build::kSharded;
    engine_config.threads = config.threads;
    engine_config.shards = config.shards;
    engine_config.engine_metrics = config.engine_metrics;
    engine_config.files_per_node = config.files_per_node;
    engine_config.interest_breadth = config.interest_breadth;
    engine_config.content = config.content;
    engine = std::make_unique<sim::Engine>(
        engine_config, std::move(graph),
        overlay::scenario_policy_factory(config.policy));
    aar::fault::FaultPlan plan;
    plan.drop = config.drop;
    const std::size_t stride =
        std::max<std::size_t>(1, config.nodes / config.crashed);
    for (std::size_t i = 0; i < config.crashed && i * stride < config.nodes;
         ++i) {
      plan.peers.push_back({static_cast<overlay::NodeId>(i * stride),
                            aar::fault::PeerState::crashed});
    }
    engine->install_faults(std::make_unique<aar::fault::FaultInjector>(
        plan, aar::fault::FaultSchedule{}, config.seed, config.nodes));
  }
  run.build_s = seconds_since(build_start);

  overlay::SearchOptions options;
  options.ttl = config.ttl;
  options.timeout_stamps = config.timeout;
  options.max_retries = config.retries;
  aar::util::Rng picker(config.seed + 2);
  std::vector<std::uint8_t> outcome_bytes;
  const auto one_search = [&](bool measured) {
    const auto origin =
        static_cast<overlay::NodeId>(picker.below(engine->num_nodes()));
    aar::workload::FileId target = engine->sample_target(origin);
    for (int attempt = 0; attempt < 8 && engine->store_has(origin, target);
         ++attempt) {
      target = engine->sample_target(origin);
    }
    const std::int64_t start = now_ns();
    overlay::SearchOutcome outcome;
    {
      const Tracer::Scope span(tracer, "sim.search", run.searches + 1);
      outcome = engine->search(origin, target, options);
    }
    if (!measured) return;
    run.search_us.push_back(static_cast<double>(now_ns() - start) / 1e3);
    ++run.searches;
    if (outcome.hit) ++run.hits;
    run.messages += outcome.query_messages + outcome.reply_messages +
                    outcome.probe_messages;
    run.dropped += outcome.dropped_messages;
    run.reached += outcome.nodes_reached;
    overlay::append_outcome(outcome_bytes, outcome);
  };
  for (std::size_t i = 0; i < config.warmup; ++i) one_search(false);
  const auto run_start = Clock::now();
  for (const sim::SimEvent& event : sim::compile_schedule(config)) {
    if (event.kind == sim::SimEventKind::kSearch) {
      one_search(true);
    } else {
      const Tracer::Scope span(tracer, "sim.churn");
      engine->churn(static_cast<std::size_t>(event.count), config.attach);
    }
  }
  run.run_s = seconds_since(run_start);
  run.hash = overlay::fnv1a(outcome_bytes);
  return run;
}

/// About one overlay's build and 1,400 searches on the reference box.
double seconds_per_overlay(std::size_t nodes) {
  return nodes >= 100'000 ? 5.0 : 2.0;
}

std::uint64_t repetition_seed(std::uint64_t seed, std::size_t repetition) {
  return seed * 1'000'003 + repetition;
}

double per(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

}  // namespace

void run_scale(const RunArgs& args, std::size_t nodes, Outcome& out) {
  // One overlay per seconds_per_overlay of --seconds (at least two), each
  // from its own seed derived from --seed: one overlay's topology moves
  // messages per search by several percent, so the run's figures average
  // over several of them.
  const std::size_t repetitions = std::max<std::size_t>(
      2, static_cast<std::size_t>(args.seconds / seconds_per_overlay(nodes)));
  std::vector<SimRun> runs;
  Tracer off;  // disabled: the untraced run records no spans
  for (std::size_t r = 0; r < repetitions; ++r) {
    runs.push_back(drive(scale_config(repetition_seed(args.seed, r), nodes), off));
  }
  aar::sim::ScaleConfig serial = scale_config(repetition_seed(args.seed, 0), nodes);
  serial.threads = 1;
  out.check(runs.front().hash == aar::sim::run_scale(serial).outcome_hash,
            "sim outcome hash at 2 threads equals run_scale at 1 thread");

  std::vector<double> setups;
  std::vector<double> rates;
  std::vector<double> search_us;
  std::uint64_t searches = 0;
  std::uint64_t hits = 0;
  std::uint64_t messages = 0;
  for (const SimRun& run : runs) {
    setups.push_back(run.build_s);
    rates.push_back(static_cast<double>(run.searches) / run.run_s);
    search_us.insert(search_us.end(), run.search_us.begin(), run.search_us.end());
    searches += run.searches;
    hits += run.hits;
    messages += run.messages;
  }
  out.attempted += searches;
  const double success = per(hits, searches);
  const double per_search = per(messages, searches);
  // Throughput: the median over overlays of each one's rate.  Latencies:
  // percentiles of every measured search of the run, pooled.
  out.metric("throughput_per_s", median(rates), "1/s");
  out.metric("latency_p50_us", percentile(search_us, 50.0), "us");
  out.metric("latency_p99_us", percentile(search_us, 99.0), "us");
  out.metric("success_share", success, "share");
  out.metric("overhead_per_op", per_search, "count");
  out.metric("setup_s", median(setups), "s");
  out.metric("peak_rss_mb", peak_rss_mb(), "MB");

  out.note("searches_per_s", median(rates), "1/s");
  out.note("messages_per_search", per_search, "count");
  out.note("search_success", success, "share");
  out.note("search_samples", static_cast<double>(searches), "count");
  out.note("repetitions", static_cast<double>(runs.size()), "count");
  out.note("nodes", static_cast<double>(nodes), "count");
}

void trace_sim_layers(const RunArgs& args, std::size_t nodes, Tracer& tracer,
                      Outcome& out) {
  const aar::sim::ScaleConfig config = scale_config(args.seed, nodes);
  SimRun traced;
  measure_twice(tracer, [&] { traced = drive(config, tracer); });
  out.metric("sim.build_s", traced.build_s, "s");
  out.metric("sim.search_us_p50", percentile(traced.search_us, 50.0), "us");
  out.metric("sim.search_us_p99", percentile(traced.search_us, 99.0), "us");
  out.metric("sim.nodes_reached_per_search", per(traced.reached, traced.searches),
             "count");
  out.metric("sim.dropped_per_search", per(traced.dropped, traced.searches),
             "count");
}

}  // namespace perfbench
