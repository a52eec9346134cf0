// perfbench: the repository benchmark's program (see perfbench/README.md).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --work-dir DIR [--spans-dir DIR] [--commit ID]
//
// Prints human-readable figures, then a metadata record line, then as the
// last line one JSON object {"correct", "attempted", "failed", "metrics"}.
// Exit code 1 when an output check failed, 2 on bad arguments.

#include <sched.h>
#include <signal.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "common.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Outcome;
using perfbench::RunArgs;

const char* const kWorkloads[] = {"relay-small", "relay-churn-persist",
                                  "trace-replay", "sim-100k", "sim-20k"};

bool is_node(const std::string& workload) {
  return workload == "relay-small" || workload == "relay-churn-persist";
}

std::string number(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --work-dir DIR [--spans-dir DIR] [--commit ID]\n";
  return 2;
}

void run_traced(const RunArgs& args, const std::string& spans_dir, Outcome& out) {
  perfbench::Tracer tracer;
  const std::string& w = args.workload;
  perfbench::trace_node_layers(args, is_node(w) ? w : "relay-small", tracer, out);
  perfbench::trace_offline_layers(args, w == "trace-replay" ? 365 : 40, tracer, out);
  perfbench::trace_sim_layers(args, w == "sim-100k" ? 100'000 : 20'000, tracer, out);
  out.metric("bench.tracing_overhead_share",
             tracer.untraced_s > 0
                 ? (tracer.traced_s - tracer.untraced_s) / tracer.untraced_s
                 : 0.0,
             "share");
  out.note("spans", static_cast<double>(tracer.size()), "count");
  if (!spans_dir.empty()) {
    std::filesystem::create_directories(spans_dir);
    tracer.write_csv(spans_dir + "/spans-" + w + "-" + std::to_string(args.seed) +
                     ".csv");
  }
}

}  // namespace

int main(int argc, char** argv) {
  ::signal(SIGPIPE, SIG_IGN);
  RunArgs args;
  std::string spans_dir;
  std::string commit = "unknown";
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
        have_seconds = args.seconds > 0;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        args.trace = value == "1";
        have_trace = true;
      } else if (flag == "--work-dir") {
        args.work_dir = value;
      } else if (flag == "--spans-dir") {
        spans_dir = value;
      } else if (flag == "--commit") {
        commit = value;
      } else {
        return usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      return usage("bad value for " + flag);
    }
  }
  bool known = false;
  for (const char* w : kWorkloads) known |= args.workload == w;
  if (!known) return usage("unknown workload '" + args.workload + "'");
  if (!have_seed || !have_seconds || !have_trace || args.work_dir.empty()) {
    return usage("--seed, --seconds, --trace and --work-dir are required");
  }
  std::filesystem::create_directories(args.work_dir);

  const perfbench::KeepAwake awake;
  args.helper_tids = awake.tids();
  Outcome out;
  const auto start = perfbench::Clock::now();
  try {
    if (args.trace) {
      run_traced(args, spans_dir, out);
    } else if (is_node(args.workload)) {
      perfbench::run_relay(args, out);
    } else if (args.workload == "trace-replay") {
      perfbench::run_replay(args, out);
    } else {
      perfbench::run_scale(args, args.workload == "sim-100k" ? 100'000 : 20'000,
                           out);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << args.workload << " failed: " << e.what() << "\n";
    return 1;
  }
  for (const auto& [name, metric] : out.metrics) {
    out.check(std::isfinite(metric.value), name + " is a finite number");
  }

  for (const auto& [name, value] : out.notes) {
    std::cout << args.workload << '.' << name << ' ' << value << "\n";
  }
  for (const auto& [name, metric] : out.metrics) {
    std::cout << name << ' ' << number(metric.value) << ' ' << metric.unit << "\n";
  }
  for (const std::string& failure : out.failures) {
    std::cout << "CHECK FAILED: " << failure << "\n";
  }

  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  const int nproc = ::sched_getaffinity(0, sizeof cpus, &cpus) == 0 ? CPU_COUNT(&cpus) : 0;
  std::cout << "{\"record\": {\"workload\": " << quoted(args.workload)
            << ", \"seed\": " << args.seed << ", \"seconds\": " << number(args.seconds)
            << ", \"trace\": " << (args.trace ? 1 : 0)
            << ", \"hardware_threads\": " << std::thread::hardware_concurrency()
            << ", \"nproc\": " << nproc
            << ", \"build_type\": " << quoted(PERFBENCH_BUILD_TYPE)
            << ", \"commit\": " << quoted(commit)
            << ", \"wall_s\": " << number(perfbench::seconds_since(start));
  for (const auto& [name, value] : out.notes) {
    std::cout << ", " << quoted(name) << ": " << quoted(value);
  }
  std::cout << "}}\n";

  const bool correct = out.failed == 0 && out.attempted > 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
            << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : out.metrics) {
    std::cout << (first ? "" : ", ") << quoted(name) << ": {\"value\": "
              << number(metric.value) << ", \"unit\": " << quoted(metric.unit) << "}";
    first = false;
  }
  std::cout << "}}" << std::endl;
  return out.failures.empty() ? 0 : 1;
}
