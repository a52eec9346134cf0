#pragma once
// Shared plumbing for the perfbench binary: run arguments, the result record
// printed as the last stdout line, the in-memory span tracer, and counters
// read from outside the program (/proc per-thread I/O, CPU and context
// switches; per-thread allocation counts from the replaced operator new).

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] std::int64_t now_ns() noexcept;
[[nodiscard]] double seconds_since(Clock::time_point start) noexcept;

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for the run's files (inside the checkout).
  std::string work_dir;
  /// Threads of the benchmark itself that are not program work (KeepAwake).
  std::vector<pid_t> helper_tids;
};

/// Keeps every CPU out of the idle loop for the life of the object: one
/// SCHED_IDLE spinner per CPU, which any runnable thread preempts at once.
/// On a virtual machine a halted virtual CPU is woken through the host, so
/// every sleep/wake hand-off between threads (thread pools, sockets) would
/// otherwise cost a host-dependent delay of microseconds to milliseconds;
/// that delay, not the program, dominated multi-threaded timings and their
/// run-to-run spread.
class KeepAwake {
 public:
  KeepAwake();
  ~KeepAwake();
  KeepAwake(const KeepAwake&) = delete;
  KeepAwake& operator=(const KeepAwake&) = delete;

  [[nodiscard]] std::vector<pid_t> tids() const;

 private:
  std::atomic<bool> stop_{false};
  std::atomic<std::size_t> started_{0};
  std::vector<pid_t> tids_;        // one slot per spinner, written once
  std::vector<std::thread> threads_;  // last: joined before the rest dies
};

/// What one run reports.  `check` counts an output check as one attempted
/// operation and a failed check as one failed operation.
struct Outcome {
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;
  /// Human-readable figures under the names the design documents use
  /// (sample counts, per-workload metric names); printed, not judged.
  std::vector<std::pair<std::string, std::string>> notes;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void note(const std::string& name, double value, const std::string& unit);
  void check(bool ok, const std::string& what);
};

/// Percentile in [0, 100] of an unsorted sample (util::Series::percentile).
[[nodiscard]] double percentile(const std::vector<double>& values, double pct);
[[nodiscard]] double median(const std::vector<double>& values);
/// Median over consecutive windows of `window` samples of each window's
/// percentile: a tail estimate that one burst of host noise (a descheduled
/// virtual CPU) cannot move, while a stall that recurs in most windows does.
/// Falls back to the plain percentile below two windows.
[[nodiscard]] double windowed_percentile(const std::vector<double>& values,
                                         double pct, std::size_t window);

/// Peak resident set (VmHWM) of this process in MiB.
[[nodiscard]] double peak_rss_mb();
[[nodiscard]] pid_t current_tid() noexcept;

/// Spans kept in memory and written when the run ends.  Single-threaded:
/// every traced call runs on the main thread.  A disabled tracer records
/// nothing, so the same call sequence can be timed untraced.
class Tracer {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::uint32_t parent;  ///< index + 1 of the enclosing span; 0 = root
    std::uint64_t request;  ///< request id (the query GUID where one exists)
  };

  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::uint64_t request = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::uint32_t index_ = 0;  ///< index + 1; 0 when disabled
  };

  bool enabled = false;
  /// Wall time of the isolated-call sections, untraced and traced.
  double untraced_s = 0.0;
  double traced_s = 0.0;

  /// Sum of self time (duration minus time covered by child spans) per name.
  [[nodiscard]] std::map<std::string, double> self_ns() const;
  /// Durations (ns) of every span with this name, in record order.
  [[nodiscard]] std::vector<double> durations_ns(const std::string& name) const;
  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }

  /// One CSV line per span: index,parent,name,start_ns,end_ns,request.
  void write_csv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::uint32_t current_ = 0;
};

/// Run `calls` untraced, then traced, adding both wall times to the tracer:
/// the difference is the tracing overhead.  `calls` must be repeatable.
template <class Calls>
void measure_twice(Tracer& tracer, Calls&& calls) {
  tracer.enabled = false;
  auto start = Clock::now();
  calls();
  tracer.untraced_s += seconds_since(start);
  tracer.enabled = true;
  start = Clock::now();
  calls();
  tracer.traced_s += seconds_since(start);
  tracer.enabled = false;
}

/// Allocations made by the calling thread since it started.
[[nodiscard]] std::uint64_t allocs_this_thread() noexcept;

/// Calls counted per thread inside this binary: allocations (replaced
/// operator new) and socket send/recv calls (replaced C library wrappers).
struct SlotCounts {
  std::uint64_t allocs = 0;
  std::uint64_t sends = 0;
  std::uint64_t recvs = 0;
};
/// Sum over every thread except `tid`.
[[nodiscard]] SlotCounts counts_except(pid_t tid) noexcept;

/// Per-thread kernel counters summed over a set of threads.
struct ThreadCounters {
  std::uint64_t syscr = 0;
  std::uint64_t syscw = 0;
  std::uint64_t cpu_ticks = 0;  ///< utime + stime, in clock ticks
  std::uint64_t ctx_switches = 0;
};

/// Counters of every thread of this process except those in `exclude`,
/// keyed by tid.
[[nodiscard]] std::map<pid_t, ThreadCounters> read_threads(
    const std::vector<pid_t>& exclude);
/// Sum of end - start over the threads alive at `end` (a thread born after
/// `start` counts from zero).
[[nodiscard]] ThreadCounters delta(const std::map<pid_t, ThreadCounters>& start,
                                   const std::map<pid_t, ThreadCounters>& end);
[[nodiscard]] double ticks_per_second();

/// Bytes of all regular files under `dir`.
[[nodiscard]] std::uint64_t dir_bytes(const std::string& dir);
void remove_tree(const std::string& dir);

}  // namespace perfbench
