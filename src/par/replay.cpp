// Definition of core::TraceSimulator::run_parallel (declared in
// core/trace_simulator.hpp).  It lives here, in aar_par, so aar_core never
// depends on the parallel engine: the parallel path is exactly the serial
// replay loop with a one-worker pool lent to the strategy, which counts the
// next rule set's window while the caller evaluates the block.  Decode-ahead
// is the block source's own business (store::StoreBlockSource prefetches
// chunks), so both paths pull the same source the same way.  Reusing the one
// loop is what makes the sim.* metrics, per-block series, and result
// encodings byte-identical across thread counts (docs/PARALLEL.md).

#include <optional>
#include <thread>

#include "core/trace_simulator.hpp"
#include "util/parallel.hpp"

namespace aar::core {

namespace {

/// Lend a one-worker pool (owned here) to a strategy for one replay when
/// `threads` allows a second thread; always detach on exit so the
/// strategy's later (possibly serial) runs are unaffected even when the
/// replay throws.
class WorkerAttachment {
 public:
  WorkerAttachment(Strategy& strategy, std::size_t threads)
      : strategy_(strategy) {
    // Counting and evaluation are the two stages to overlap, so a second
    // thread is all the replay can use: one counting worker, or none at 1.
    if (threads == 0) threads = std::thread::hardware_concurrency();
    if (threads >= 2) worker_.emplace(1);
    strategy_.attach_worker(worker_ ? &*worker_ : nullptr);
  }
  ~WorkerAttachment() { strategy_.attach_worker(nullptr); }

  WorkerAttachment(const WorkerAttachment&) = delete;
  WorkerAttachment& operator=(const WorkerAttachment&) = delete;

 private:
  Strategy& strategy_;
  std::optional<util::ThreadPool> worker_;
};

}  // namespace

SimulationResult TraceSimulator::run_parallel(trace::BlockSource& source,
                                              const ParallelConfig& config) {
  const WorkerAttachment attachment(strategy_, config.threads);
  return run_trace_simulation(strategy_, source, block_size_);
}

SimulationResult TraceSimulator::run_parallel(
    std::span<const trace::QueryReplyPair> pairs,
    const ParallelConfig& config) {
  const WorkerAttachment attachment(strategy_, config.threads);
  return run_trace_simulation(strategy_, pairs, block_size_);
}

}  // namespace aar::core
