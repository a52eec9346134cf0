#include "lsm/store.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <queue>
#include <sstream>

#include "lsm/fault.hpp"
#include "obs/registry.hpp"

namespace aar::lsm {

namespace fs = std::filesystem;

namespace {

// Registered on first Store construction, so processes that never open a
// store (an aar_node without --state-dir) export no lsm.* keys — the CI
// metric-set comparisons depend on that.
struct Metrics {
  obs::Counter& flushes = obs::Registry::global().counter("lsm.flushes");
  obs::Counter& compactions =
      obs::Registry::global().counter("lsm.compactions");
  obs::Counter& lookups = obs::Registry::global().counter("lsm.lookups");
  obs::Counter& bloom_skips =
      obs::Registry::global().counter("lsm.bloom_skips");
  obs::Gauge& runs = obs::Registry::global().gauge("lsm.runs");
  obs::Gauge& memtable_bytes =
      obs::Registry::global().gauge("lsm.memtable_bytes");
  obs::Gauge& entries_on_disk =
      obs::Registry::global().gauge("lsm.entries_on_disk");
  obs::Timer& flush_time = obs::Registry::global().timer("lsm.flush");
  obs::Timer& compaction_time =
      obs::Registry::global().timer("lsm.compaction");
};

Metrics& metrics() {
  static Metrics m;
  return m;
}

}  // namespace

Store::Store(std::string dir, StoreOptions options)
    : dir_(std::move(dir)), options_(options) {
  (void)metrics();
  recover();
}

// ------------------------------------------------------------------- recovery

void Store::recover() {
  std::error_code ec;
  fs::create_directories(dir_, ec);  // best effort; open errors surface below

  // Adopt the first manifest whose referenced runs all verify.  A parse
  // failure and a corrupt run step down the same ladder: the version
  // below is by construction fully committed.
  std::vector<LoadedManifest> candidates = manifest_candidates(dir_);
  Manifest adopted;  // empty store when the whole ladder fails
  for (LoadedManifest& candidate : candidates) {
    std::vector<std::vector<std::shared_ptr<RunReader>>> opened;
    bool ok = true;
    for (const ManifestRun& run : candidate.manifest.runs) {
      std::shared_ptr<RunReader> reader;
      try {
        // Every block is CRC-checked: runs are immutable, so this covers
        // all corruption acquired while the store was down.
        reader = RunReader::open(dir_ + "/" + run.file,
                                 /*verify_blocks=*/true);
      } catch (const std::exception&) {
        ok = false;
        break;
      }
      if (reader->entry_count() != run.entries) {
        ok = false;
        break;
      }
      if (opened.size() <= run.level) opened.resize(run.level + 1);
      opened[run.level].push_back(std::move(reader));
    }
    if (!ok) continue;
    adopted = std::move(candidate.manifest);
    levels_ = std::move(opened);
    recovered_from_ = candidate.source;
    break;
  }

  manifest_version_ = adopted.version;
  next_file_ = adopted.next_file;

  // If the ladder stepped below MANIFEST, reinstall the adopted version
  // under its canonical name so the next open starts at rung one.
  if (recovered_from_ != kManifestName) {
    Manifest reinstall = adopted;
    reinstall.version = ++manifest_version_;
    install_manifest(dir_, reinstall);
  }

  // Drop files no committed version references: runs from abandoned
  // versions, torn flush/compaction outputs, stale manifest tmp.  Only
  // names this store writes are touched.
  std::vector<std::string> referenced;
  for (const ManifestRun& run : adopted.runs) referenced.push_back(run.file);
  for (const fs::directory_entry& entry : fs::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    const bool is_run = name.rfind("run-", 0) == 0 &&
                        name.size() > 11 &&
                        name.compare(name.size() - 7, 7, ".aarlsm") == 0;
    const bool is_tmp = name == kManifestTmpName;
    if (!is_run && !is_tmp) continue;
    if (is_run &&
        std::find(referenced.begin(), referenced.end(), name) !=
            referenced.end()) {
      continue;
    }
    fs::remove(entry.path(), ec);
  }

  std::uint64_t on_disk = 0;
  std::uint64_t run_count = 0;
  for (const auto& level : levels_) {
    for (const auto& run : level) {
      on_disk += run->entry_count();
      ++run_count;
    }
  }
  metrics().runs.set(static_cast<double>(run_count));
  metrics().entries_on_disk.set(static_cast<double>(on_disk));
}

// --------------------------------------------------------------------- writes

std::string Store::run_file_name(std::uint64_t seq) const {
  char name[32];
  std::snprintf(name, sizeof name, "run-%08llu.aarlsm",
                static_cast<unsigned long long>(seq));
  return name;
}

Manifest Store::snapshot_manifest_locked() const {
  Manifest manifest;
  manifest.version = manifest_version_;
  manifest.next_file = next_file_;
  for (std::uint32_t level = 0; level < levels_.size(); ++level) {
    for (const auto& run : levels_[level]) {
      manifest.runs.push_back(ManifestRun{
          level, fs::path(run->path()).filename().string(),
          run->entry_count()});
    }
  }
  return manifest;
}

void Store::add(HostId antecedent, HostId consequent, std::int64_t delta) {
  std::lock_guard<std::mutex> lock(mu_);
  memtable_.add(make_key(antecedent, consequent), delta);
  metrics().memtable_bytes.set(
      static_cast<double>(memtable_.approximate_bytes()));
  if (memtable_.approximate_bytes() >= options_.memtable_bytes) {
    flush_locked();
    // Writer-driven compaction: the write path itself keeps the level
    // structure bounded, or a sustained ingest accumulates level-0 runs
    // and every lookup pays O(runs).
    while (compact_locked()) {
    }
  }
}

void Store::flush() {
  std::lock_guard<std::mutex> lock(mu_);
  flush_locked();
}

void Store::flush_locked() {
  if (memtable_.empty()) return;
  const auto scope = metrics().flush_time.measure();
  std::vector<Entry> entries = memtable_.drain();
  // Exact-zero sums are the additive identity — a run gains nothing by
  // carrying them.
  entries.erase(std::remove_if(entries.begin(), entries.end(),
                               [](const Entry& e) { return e.count == 0; }),
                entries.end());
  metrics().memtable_bytes.set(0.0);
  if (entries.empty()) return;

  const std::uint64_t seq = next_file_++;
  const std::string file = run_file_name(seq);
  RunWriterOptions wopts;
  wopts.block_bytes = options_.block_bytes;
  wopts.fault_prefix = "run";
  write_run(dir_ + "/" + file, entries, wopts);
  fault_point("run.sealed");

  auto reader = RunReader::open(dir_ + "/" + file, /*verify_blocks=*/false);

  Manifest manifest = snapshot_manifest_locked();
  manifest.version = manifest_version_ + 1;
  manifest.runs.push_back(ManifestRun{0, file, reader->entry_count()});
  install_manifest(dir_, manifest);

  manifest_version_ = manifest.version;
  if (levels_.empty()) levels_.resize(1);
  levels_[0].push_back(std::move(reader));
  ++flush_count_;
  metrics().flushes.add(1);

  std::uint64_t on_disk = 0;
  std::uint64_t run_count = 0;
  for (const auto& level : levels_) {
    for (const auto& run : level) {
      on_disk += run->entry_count();
      ++run_count;
    }
  }
  metrics().runs.set(static_cast<double>(run_count));
  metrics().entries_on_disk.set(static_cast<double>(on_disk));
}

bool Store::compact() {
  std::lock_guard<std::mutex> lock(mu_);
  return compact_locked();
}

bool Store::compact_locked() {
  std::size_t target = levels_.size();
  for (std::size_t level = 0; level < levels_.size(); ++level) {
    if (levels_[level].size() >= options_.level_fanout) {
      target = level;
      break;
    }
  }
  if (target == levels_.size()) return false;
  const auto scope = metrics().compaction_time.measure();

  const std::vector<std::shared_ptr<RunReader>> inputs = levels_[target];
  std::uint64_t input_entries = 0;
  for (const auto& run : inputs) input_entries += run->entry_count();

  // K-way streaming merge: one block per input resident, equal keys
  // summed, exact-zero sums dropped.
  std::vector<RunReader::Iterator> iters;
  iters.reserve(inputs.size());
  for (const auto& run : inputs) iters.push_back(run->iterate());
  using HeapItem = std::pair<Key, std::size_t>;
  std::priority_queue<HeapItem, std::vector<HeapItem>, std::greater<>> heap;
  for (std::size_t i = 0; i < iters.size(); ++i) {
    if (iters[i].valid()) heap.emplace(iters[i].entry().key, i);
  }
  auto next = [&](Entry& out) {
    while (!heap.empty()) {
      const Key key = heap.top().first;
      std::int64_t sum = 0;
      while (!heap.empty() && heap.top().first == key) {
        const std::size_t src = heap.top().second;
        heap.pop();
        sum += iters[src].entry().count;
        iters[src].next();
        if (iters[src].valid()) heap.emplace(iters[src].entry().key, src);
      }
      if (sum == 0) continue;
      out = Entry{key, sum};
      return true;
    }
    return false;
  };

  const std::uint64_t seq = next_file_++;
  const std::string file = run_file_name(seq);
  RunWriterOptions wopts;
  wopts.block_bytes = options_.block_bytes;
  wopts.fault_prefix = "compaction";
  const std::uint64_t written =
      write_run_stream(dir_ + "/" + file, next, input_entries, wopts);
  fault_point("compaction.sealed");

  std::shared_ptr<RunReader> merged;
  if (written > 0) {
    merged = RunReader::open(dir_ + "/" + file, /*verify_blocks=*/false);
  } else {
    std::error_code ec;
    fs::remove(dir_ + "/" + file, ec);
  }

  Manifest manifest;
  manifest.version = manifest_version_ + 1;
  manifest.next_file = next_file_;
  for (std::uint32_t level = 0; level < levels_.size(); ++level) {
    if (level == target) continue;
    for (const auto& run : levels_[level]) {
      manifest.runs.push_back(ManifestRun{
          level, fs::path(run->path()).filename().string(),
          run->entry_count()});
    }
  }
  if (merged) {
    manifest.runs.push_back(ManifestRun{
        static_cast<std::uint32_t>(target + 1), file, merged->entry_count()});
  }
  install_manifest(dir_, manifest);

  manifest_version_ = manifest.version;
  levels_[target].clear();
  if (merged) {
    if (levels_.size() <= target + 1) levels_.resize(target + 2);
    levels_[target + 1].push_back(std::move(merged));
  }
  for (const auto& run : inputs) {
    std::error_code ec;
    fs::remove(run->path(), ec);
  }
  ++compaction_count_;
  metrics().compactions.add(1);

  std::uint64_t on_disk = 0;
  std::uint64_t run_count = 0;
  for (const auto& level : levels_) {
    for (const auto& run : level) {
      on_disk += run->entry_count();
      ++run_count;
    }
  }
  metrics().runs.set(static_cast<double>(run_count));
  metrics().entries_on_disk.set(static_cast<double>(on_disk));
  return true;
}

void Store::maintain() {
  std::lock_guard<std::mutex> lock(mu_);
  flush_locked();
  while (compact_locked()) {
  }
}

// ---------------------------------------------------------------------- reads

std::int64_t Store::get_count(HostId antecedent, HostId consequent) const {
  std::lock_guard<std::mutex> lock(mu_);
  metrics().lookups.add(1);
  const Key key = make_key(antecedent, consequent);
  std::int64_t sum = 0;
  (void)memtable_.get(key, sum);
  for (const auto& level : levels_) {
    for (const auto& run : level) {
      if (!run->may_contain(antecedent)) {
        metrics().bloom_skips.add(1);
        continue;
      }
      (void)run->get(key, sum);
    }
  }
  return sum;
}

void Store::get_antecedent(
    HostId antecedent,
    std::vector<std::pair<HostId, std::int64_t>>& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  metrics().lookups.add(1);
  std::map<Key, std::int64_t> sums;
  std::vector<Entry> scratch;
  memtable_.collect_antecedent(antecedent, scratch);
  for (const auto& level : levels_) {
    for (const auto& run : level) {
      if (!run->may_contain(antecedent)) {
        metrics().bloom_skips.add(1);
        continue;
      }
      run->for_antecedent(antecedent, scratch);
    }
  }
  for (const Entry& entry : scratch) sums[entry.key] += entry.count;
  for (const auto& [key, sum] : sums) {
    if (sum != 0) out.emplace_back(key_consequent(key), sum);
  }
}

std::vector<Entry> Store::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<Key, std::int64_t> sums;
  std::vector<Entry> scratch;
  memtable_.snapshot(scratch);
  for (const Entry& entry : scratch) sums[entry.key] += entry.count;
  for (const auto& level : levels_) {
    for (const auto& run : level) {
      for (auto it = run->iterate(); it.valid(); it.next()) {
        sums[it.entry().key] += it.entry().count;
      }
    }
  }
  std::vector<Entry> out;
  for (const auto& [key, sum] : sums) {
    if (sum != 0) out.push_back(Entry{key, sum});
  }
  return out;
}

std::string Store::dump_text() const {
  std::ostringstream out;
  for (const Entry& entry : entries()) {
    out << key_antecedent(entry.key) << ',' << key_consequent(entry.key) << ','
        << entry.count << '\n';
  }
  return out.str();
}

std::string Store::manifest_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ifstream in(dir_ + "/" + kManifestName, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

Store::Stats Store::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats stats;
  stats.flushes = flush_count_;
  stats.compactions = compaction_count_;
  stats.memtable_entries = memtable_.entries();
  stats.recovered_from = recovered_from_;
  for (std::size_t level = 0; level < levels_.size(); ++level) {
    if (!levels_[level].empty()) stats.levels = level + 1;
    stats.runs += levels_[level].size();
    for (const auto& run : levels_[level]) {
      stats.entries_on_disk += run->entry_count();
    }
  }
  return stats;
}

}  // namespace aar::lsm
