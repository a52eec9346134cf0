// Definition of core::TraceSimulator::run_parallel (declared in
// core/trace_simulator.hpp).  It lives here, in aar_par, so aar_core never
// depends on the parallel engine: the parallel path is exactly the serial
// replay loop with (a) a one-worker pool lent to the strategy, which counts
// the next rule set's window while the caller evaluates the block, and (b)
// the block source wrapped in a PrefetchBlockSource.  Reusing the one loop
// is what makes the sim.* metrics, per-block series, and result encodings
// byte-identical across thread counts (docs/PARALLEL.md).

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>

#include "core/trace_simulator.hpp"
#include "par/pipeline.hpp"
#include "util/parallel.hpp"

namespace aar::core {

namespace {

/// Lend a worker to a strategy for one replay; always detach on exit so the
/// strategy's later (possibly serial) runs are unaffected even when the
/// replay throws.
class WorkerAttachment {
 public:
  WorkerAttachment(Strategy& strategy, util::ThreadPool* worker) noexcept
      : strategy_(strategy) {
    strategy_.attach_worker(worker);
  }
  ~WorkerAttachment() { strategy_.attach_worker(nullptr); }

  WorkerAttachment(const WorkerAttachment&) = delete;
  WorkerAttachment& operator=(const WorkerAttachment&) = delete;

 private:
  Strategy& strategy_;
};

}  // namespace

SimulationResult TraceSimulator::run_parallel(trace::BlockSource& source,
                                              const ParallelConfig& config) {
  if (block_size_ == 0) {
    throw std::invalid_argument(
        "run_trace_simulation: block_size must be positive");
  }
  // Counting and evaluation are the two stages to overlap, so a second
  // thread is all the replay can use: one counting worker, or none at 1.
  const std::size_t threads = config.threads != 0
                                  ? config.threads
                                  : std::thread::hardware_concurrency();
  std::optional<util::ThreadPool> worker;
  if (threads >= 2) worker.emplace(1);
  par::PrefetchBlockSource prefetch(
      source, block_size_, std::max<std::size_t>(1, config.queue_depth));
  const WorkerAttachment attachment(strategy_,
                                    worker ? &*worker : nullptr);
  return run_trace_simulation(strategy_, prefetch, block_size_);
}

SimulationResult TraceSimulator::run_parallel(
    std::span<const trace::QueryReplyPair> pairs,
    const ParallelConfig& config) {
  // Same up-front validation (and messages) as the serial span overload.
  if (block_size_ == 0) {
    throw std::invalid_argument(
        "run_trace_simulation: block_size must be positive");
  }
  if (pairs.size() / block_size_ < 2) {
    throw std::runtime_error(
        "run_trace_simulation: trace too short: " +
        std::to_string(pairs.size()) + " pairs at block size " +
        std::to_string(block_size_) +
        " (need a bootstrap block plus at least one test block)");
  }
  trace::SpanBlockSource source(pairs);
  return run_parallel(source, config);
}

}  // namespace aar::core
