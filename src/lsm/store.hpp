#pragma once
// aar::lsm::Store — the tiered antecedent→consequent count store
// (docs/STORAGE.md).
//
// Writes land in a Memtable; when its byte estimate crosses the budget
// the memtable is drained into an immutable level-0 run, the manifest is
// atomically swapped, and the writing add() then runs compaction to a
// fixpoint, so a sustained ingest keeps its level structure bounded.
// When a level accumulates `level_fanout` runs,
// compaction merges them all into one run at the next level, summing
// counts per key (addition is associative, so any merge order yields the
// same store) and dropping exact-zero sums (zero is the identity — a
// future delta for a dropped key starts from the same place either way;
// negative sums are kept, since dropping them would change later sums).
//
// Reads sum memtable + every live run; each run's bloom filter lets a
// read skip runs that hold nothing for the antecedent without touching
// any block.  aar_node archives its all-time pair counts here
// (--state-dir) and serves them through the `archive <id>` admin command.
//
// Recovery (= the constructor): load MANIFEST, falling back to
// MANIFEST.prev and then to an empty store if parsing, CRC, or any
// referenced run fails verification; reinstall a fresh manifest when the
// ladder stepped down; delete orphaned run/tmp files.  Corruption is
// never fatal — every failure mode lands on the most recent fully
// committed version.
//
// Thread safety: all public methods lock one internal mutex.  After a
// CrashPoint (lsm/fault.hpp) unwinds through any method, the Store
// object is unspecified and must be discarded (re-open the directory, as
// a real restart would).

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "lsm/manifest.hpp"
#include "lsm/memtable.hpp"
#include "lsm/run.hpp"

namespace aar::lsm {

struct StoreOptions {
  std::size_t memtable_bytes = 4u << 20;  ///< flush trigger
  std::size_t block_bytes = 4096;
  std::uint32_t level_fanout = 4;  ///< runs per level before compaction
};

class Store final {
 public:
  /// Opens (and if necessary recovers) the store in `dir`, creating the
  /// directory when missing.
  explicit Store(std::string dir, StoreOptions options = {});

  Store(const Store&) = delete;
  Store& operator=(const Store&) = delete;

  /// Merge `delta` into (antecedent, consequent); may trigger a flush.
  void add(HostId antecedent, HostId consequent, std::int64_t delta);

  /// Total running sum across memtable and all runs (0 when absent).
  [[nodiscard]] std::int64_t get_count(HostId antecedent,
                                       HostId consequent) const;

  /// All consequents of `antecedent` with nonzero total, ascending.
  void get_antecedent(
      HostId antecedent,
      std::vector<std::pair<HostId, std::int64_t>>& out) const;

  /// Drain the memtable into a level-0 run (no-op when empty).
  void flush();

  /// One compaction step if any level is over fanout; true if work done.
  bool compact();

  /// flush() + compact() until the level structure settles.
  void maintain();

  /// Full merged view, nonzero sums, ascending keys.  Materializes
  /// everything — test/debug surface, not a serving path.
  [[nodiscard]] std::vector<Entry> entries() const;

  /// Canonical "antecedent,consequent,count\n" dump of entries() — the
  /// differential suite compares these bytes against the shadow map.
  [[nodiscard]] std::string dump_text() const;

  /// Raw bytes of the installed manifest (CI determinism gate diffs
  /// these across same-seed kill-point recoveries).
  [[nodiscard]] std::string manifest_bytes() const;

  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }

  struct Stats {
    std::uint64_t flushes = 0;
    std::uint64_t compactions = 0;
    std::uint64_t runs = 0;
    std::uint64_t levels = 0;
    std::uint64_t memtable_entries = 0;
    std::uint64_t entries_on_disk = 0;
    std::string recovered_from;  ///< manifest the constructor loaded
  };
  [[nodiscard]] Stats stats() const;

 private:
  void recover();
  void flush_locked();
  bool compact_locked();
  [[nodiscard]] Manifest snapshot_manifest_locked() const;
  [[nodiscard]] std::string run_file_name(std::uint64_t seq) const;

  std::string dir_;
  StoreOptions options_;

  mutable std::mutex mu_;
  Memtable memtable_;
  /// levels_[0] = newest flushes; deeper levels hold older merged runs.
  std::vector<std::vector<std::shared_ptr<RunReader>>> levels_;
  std::uint64_t next_file_ = 1;
  std::uint64_t manifest_version_ = 0;
  std::uint64_t flush_count_ = 0;
  std::uint64_t compaction_count_ = 0;
  /// Which manifest rung the constructor adopted: "MANIFEST",
  /// "MANIFEST.prev", or "empty" when the whole ladder failed.
  std::string recovered_from_ = "empty";
};

}  // namespace aar::lsm
