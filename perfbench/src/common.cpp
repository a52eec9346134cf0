#include "common.hpp"

#include <sched.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <new>
#include <sstream>

#include "util/stats.hpp"

namespace perfbench {

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double seconds_since(Clock::time_point start) noexcept {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

void Outcome::note(const std::string& name, double value,
                   const std::string& unit) {
  std::ostringstream os;
  os.precision(6);
  os << value << ' ' << unit;
  notes.emplace_back(name, os.str());
}

void Outcome::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    failures.push_back(what);
  }
}

double percentile(const std::vector<double>& values, double pct) {
  aar::util::Series series;
  for (const double v : values) series.add(v);
  return series.percentile(pct);
}

double median(const std::vector<double>& values) {
  return percentile(values, 50.0);
}

double windowed_percentile(const std::vector<double>& values, double pct,
                           std::size_t window) {
  if (window == 0 || values.size() < 2 * window) return percentile(values, pct);
  std::vector<double> per_window;
  for (std::size_t at = 0; at + window <= values.size(); at += window) {
    per_window.push_back(percentile(
        std::vector<double>(values.begin() + static_cast<std::ptrdiff_t>(at),
                            values.begin() + static_cast<std::ptrdiff_t>(at + window)),
        pct));
  }
  return median(per_window);
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

pid_t current_tid() noexcept {
  return static_cast<pid_t>(::syscall(SYS_gettid));
}

// -------------------------------------------------------------- KeepAwake

KeepAwake::KeepAwake() {
  cpu_set_t all;
  CPU_ZERO(&all);
  if (::sched_getaffinity(0, sizeof all, &all) != 0) return;
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &all)) cpus.push_back(cpu);
  }
  tids_.assign(cpus.size(), 0);
  for (std::size_t i = 0; i < cpus.size(); ++i) {
    threads_.emplace_back([this, i, cpu = cpus[i]] {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      (void)::sched_setaffinity(0, sizeof one, &one);
      const sched_param param{};
      (void)::sched_setscheduler(0, SCHED_IDLE, &param);
      tids_[i] = current_tid();
      started_.fetch_add(1, std::memory_order_release);
      // pause: a bare spin takes issue slots and power from the workload's
      // threads on the same physical core.
      while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#elif defined(__aarch64__)
        asm volatile("yield");
#endif
      }
    });
  }
  while (started_.load(std::memory_order_acquire) < threads_.size()) {
    std::this_thread::yield();
  }
}

KeepAwake::~KeepAwake() {
  stop_.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads_) t.join();
}

std::vector<pid_t> KeepAwake::tids() const { return tids_; }

// ---------------------------------------------------------------- tracer

Tracer::Scope::Scope(Tracer& tracer, const char* name, std::uint64_t request)
    : tracer_(tracer) {
  if (!tracer_.enabled) return;
  tracer_.spans_.push_back(Span{name, now_ns(), 0, tracer_.current_, request});
  index_ = static_cast<std::uint32_t>(tracer_.spans_.size());
  tracer_.current_ = index_;
}

Tracer::Scope::~Scope() {
  if (index_ == 0) return;
  Span& span = tracer_.spans_[index_ - 1];
  span.end_ns = now_ns();
  tracer_.current_ = span.parent;
}

std::map<std::string, double> Tracer::self_ns() const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent != 0) {
      child[span.parent - 1] += static_cast<double>(span.end_ns - span.start_ns);
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out[span.name] += static_cast<double>(span.end_ns - span.start_ns) - child[i];
  }
  return out;
}

std::vector<double> Tracer::durations_ns(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (name == span.name) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns));
    }
  }
  return out;
}

void Tracer::write_csv(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return;
  std::fputs("index,parent,name,start_ns,end_ns,request\n", file);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(file, "%zu,%u,%s,%lld,%lld,%llu\n", i + 1, s.parent, s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.request));
  }
  std::fclose(file);
}

// ------------------------------------------- per-thread allocation counts

namespace {

struct ThreadSlot {
  std::atomic<pid_t> tid{0};
  std::atomic<std::uint64_t> allocs{0};
  std::atomic<std::uint64_t> sends{0};
  std::atomic<std::uint64_t> recvs{0};
};

constexpr std::size_t kSlots = 4096;
ThreadSlot g_slots[kSlots];
std::atomic<std::size_t> g_next_slot{0};
thread_local ThreadSlot* t_slot = nullptr;

ThreadSlot& this_slot() noexcept {
  if (t_slot == nullptr) {
    // The last slot is shared once the table is full; a run starts a few
    // dozen threads, so every thread gets a private slot in practice.
    const std::size_t index =
        std::min(g_next_slot.fetch_add(1, std::memory_order_relaxed),
                 kSlots - 1);
    t_slot = &g_slots[index];
    t_slot->tid.store(static_cast<pid_t>(::syscall(SYS_gettid)),
                      std::memory_order_relaxed);
  }
  return *t_slot;
}

void* allocate(std::size_t n) {
  this_slot().allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* allocate_aligned(std::size_t n, std::align_val_t align) {
  this_slot().allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  const auto alignment =
      std::max(static_cast<std::size_t>(align), sizeof(void*));
  if (::posix_memalign(&p, alignment, n == 0 ? 1 : n) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

std::uint64_t allocs_this_thread() noexcept {
  return this_slot().allocs.load(std::memory_order_relaxed);
}

SlotCounts counts_except(pid_t tid) noexcept {
  SlotCounts sum;
  const std::size_t used =
      std::min(g_next_slot.load(std::memory_order_relaxed), kSlots);
  for (std::size_t i = 0; i < used; ++i) {
    if (g_slots[i].tid.load(std::memory_order_relaxed) == tid) continue;
    sum.allocs += g_slots[i].allocs.load(std::memory_order_relaxed);
    sum.sends += g_slots[i].sends.load(std::memory_order_relaxed);
    sum.recvs += g_slots[i].recvs.load(std::memory_order_relaxed);
  }
  return sum;
}

// ---------------------------------------------------------- /proc counters

namespace {

std::uint64_t field_after(const std::string& text, const std::string& key) {
  const std::size_t at = text.find(key);
  if (at == std::string::npos) return 0;
  return std::strtoull(text.c_str() + at + key.size(), nullptr, 10);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

}  // namespace

std::map<pid_t, ThreadCounters> read_threads(const std::vector<pid_t>& exclude) {
  std::map<pid_t, ThreadCounters> out;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task", ec)) {
    const pid_t tid =
        static_cast<pid_t>(std::strtol(entry.path().filename().c_str(), nullptr, 10));
    if (std::find(exclude.begin(), exclude.end(), tid) != exclude.end()) continue;
    const std::string base = entry.path().string();
    ThreadCounters c;
    const std::string io = slurp(base + "/io");
    c.syscr = field_after(io, "syscr: ");
    c.syscw = field_after(io, "syscw: ");
    // stat: "tid (comm) state ..." — utime and stime are fields 14 and 15,
    // counted after the closing parenthesis (comm may hold spaces).
    const std::string stat = slurp(base + "/stat");
    const std::size_t close = stat.rfind(')');
    if (close != std::string::npos) {
      std::istringstream fields(stat.substr(close + 2));
      std::string field;
      for (int i = 3; i <= 15 && fields >> field; ++i) {
        if (i == 14 || i == 15) c.cpu_ticks += std::stoull(field);
      }
    }
    const std::string status = slurp(base + "/status");
    c.ctx_switches = field_after(status, "voluntary_ctxt_switches:\t") +
                     field_after(status, "nonvoluntary_ctxt_switches:\t");
    out[tid] = c;
  }
  return out;
}

ThreadCounters delta(const std::map<pid_t, ThreadCounters>& start,
                     const std::map<pid_t, ThreadCounters>& end) {
  ThreadCounters sum;
  for (const auto& [tid, e] : end) {
    ThreadCounters s;
    if (const auto it = start.find(tid); it != start.end()) s = it->second;
    sum.syscr += e.syscr - s.syscr;
    sum.syscw += e.syscw - s.syscw;
    sum.cpu_ticks += e.cpu_ticks - s.cpu_ticks;
    sum.ctx_switches += e.ctx_switches - s.ctx_switches;
  }
  return sum;
}

double ticks_per_second() {
  return static_cast<double>(::sysconf(_SC_CLK_TCK));
}

std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t sum = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) sum += entry.file_size(ec);
  }
  return sum;
}

void remove_tree(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

}  // namespace perfbench

// Socket I/O goes through send/recv, which /proc/<tid>/io does not count as
// syscr/syscw; these definitions take the place of the C library's and count
// each call against the calling thread before making the system call.
extern "C" ssize_t send(int fd, const void* buf, std::size_t n, int flags) {
  perfbench::this_slot().sends.fetch_add(1, std::memory_order_relaxed);
  return static_cast<ssize_t>(::syscall(SYS_sendto, fd, buf, n, flags, nullptr, 0));
}
extern "C" ssize_t recv(int fd, void* buf, std::size_t n, int flags) {
  perfbench::this_slot().recvs.fetch_add(1, std::memory_order_relaxed);
  return static_cast<ssize_t>(
      ::syscall(SYS_recvfrom, fd, buf, n, flags, nullptr, nullptr));
}

// Replaced global allocation functions: every allocation in the process is
// counted against the thread that made it (see allocs_except).
void* operator new(std::size_t n) { return perfbench::allocate(n); }
void* operator new[](std::size_t n) { return perfbench::allocate(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return perfbench::allocate(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return perfbench::allocate(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t n, std::align_val_t a) {
  return perfbench::allocate_aligned(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return perfbench::allocate_aligned(n, a);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
