// aar::lsm crash-recovery battery (docs/STORAGE.md "Recovery contract").
//
//   * Kill-point matrix — a fault hook throws CrashPoint at every named
//     durability boundary (mid-block write, sealed-run-before-manifest,
//     mid-compaction, both halves of the manifest rename dance, and the
//     post-install cleanup window).  After each simulated crash the
//     directory is reopened the way a real restart would, and the
//     recovered contents must equal an exact committed prefix: the disk
//     state before the interrupted operation, or — once the new manifest
//     is installed — after it.  Crashed compactions never change the
//     logical contents at all (counts merge associatively).
//   * Torn-write / corruption corpus — truncations at every suffix length
//     and single-bit flips across run files and the manifest must never
//     abort an open: the CRC layers reject the damage and the manifest
//     ladder (MANIFEST -> MANIFEST.prev -> empty) steps down to the
//     newest rung whose runs all verify.
//   * Determinism — the same seed and the same kill point recover to
//     byte-identical manifests and dumps across independent runs (the CI
//     gate relies on this).
//
// Every simulated crash leaves the Store object poisoned mid-operation, so
// the object is always discarded after a CrashPoint and a fresh Store is
// opened on the directory — exactly the documented contract.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "lsm/fault.hpp"
#include "lsm/format.hpp"
#include "lsm/store.hpp"
#include "test_tmp.hpp"
#include "util/rng.hpp"

namespace aar::lsm {
namespace {

namespace fs = std::filesystem;
using aar::testing::ScopedTempDir;

/// Arm the process-wide hook to throw at the n-th occurrence of `point`.
class ArmedCrash {
 public:
  ArmedCrash(std::string point, int fire_at = 1) {
    set_fault_hook([point = std::move(point), fire_at,
                    seen = 0](std::string_view at) mutable {
      if (at != point) return;
      if (++seen == fire_at) {
        throw CrashPoint("injected crash at " + std::string(at));
      }
    });
  }
  ~ArmedCrash() { set_fault_hook(nullptr); }
  ArmedCrash(const ArmedCrash&) = delete;
  ArmedCrash& operator=(const ArmedCrash&) = delete;
};

/// Shadow of the LOGICAL durable contents: what a reopen must serve.
using Counts = std::map<Key, std::int64_t>;

std::string dump_of(const Counts& counts) {
  std::string out;
  for (const auto& [key, count] : counts) {
    if (count == 0) continue;
    out += std::to_string(key_antecedent(key));
    out += ',';
    out += std::to_string(key_consequent(key));
    out += ',';
    out += std::to_string(count);
    out += '\n';
  }
  return out;
}

void merge_into(Counts& into, const Counts& add) {
  for (const auto& [key, count] : add) into[key] += count;
}

/// Deterministic workload batch: `n` adds applied to both the store's
/// memtable and a batch-local shadow.
Counts apply_batch(Store& store, util::Rng& rng, std::size_t n) {
  Counts batch;
  for (std::size_t i = 0; i < n; ++i) {
    const auto a = static_cast<HostId>(rng.below(12));
    const auto c = static_cast<HostId>(rng.below(12));
    const std::int64_t delta =
        rng.below(5) == 0 ? -1 : 1 + static_cast<std::int64_t>(rng.below(3));
    store.add(a, c, delta);
    batch[make_key(a, c)] += delta;
  }
  return batch;
}

// Small budgets so flushes write several blocks (multiple run.block hits)
// and compaction has real work.
StoreOptions tight_options() {
  StoreOptions options;
  options.memtable_bytes = 64u << 10;  // manual flushes drive the schedule
  options.block_bytes = 128;
  options.level_fanout = 2;
  return options;
}

// --- kill-point matrix: flush ---------------------------------------------

struct FlushCase {
  const char* point;
  int fire_at;
  bool durable_after;  ///< crash lands after the manifest install
};

// Prints the kill point rather than the literal's address, so the
// discovered test names are the same on every build.
void PrintTo(const FlushCase& c, std::ostream* os) {
  *os << c.point << " #" << c.fire_at
      << (c.durable_after ? " durable" : " rolled back");
}

class LsmKillPointFlush : public ::testing::TestWithParam<FlushCase> {};

TEST_P(LsmKillPointFlush, RecoversToACommittedPrefix) {
  const FlushCase& kill = GetParam();
  ScopedTempDir tmp("aar_lsm_kill");
  const std::string dir = tmp.path("db");
  util::Rng rng(4242);

  // Commit a baseline: one clean flush, fully durable.
  Counts durable;
  {
    Store store(dir, tight_options());
    merge_into(durable, apply_batch(store, rng, 300));
    store.flush();
  }

  // Second batch dies mid-flush at the parameterized point.
  Counts batch;
  {
    Store store(dir, tight_options());
    batch = apply_batch(store, rng, 300);
    ArmedCrash crash(kill.point, kill.fire_at);
    EXPECT_THROW(store.flush(), CrashPoint);
    // Store is poisoned mid-operation: discard without further use.
  }

  Counts expected = durable;
  if (kill.durable_after) merge_into(expected, batch);
  Store recovered(dir, tight_options());
  EXPECT_EQ(recovered.dump_text(), dump_of(expected))
      << "crash at " << kill.point << " #" << kill.fire_at;

  // The recovered store must stay fully usable: write + flush + compact.
  merge_into(expected, apply_batch(recovered, rng, 100));
  recovered.maintain();
  EXPECT_EQ(recovered.dump_text(), dump_of(expected));
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, LsmKillPointFlush,
    ::testing::Values(
        // Mid-block write: the run is torn, nothing committed.
        FlushCase{"run.block", 1, false},
        FlushCase{"run.block", 2, false},
        // Run sealed but manifest untouched: the run is an orphan.
        FlushCase{"run.sealed", 1, false},
        // Tmp manifest written, no rename: still the old manifest.
        FlushCase{"manifest.tmp", 1, false},
        // Mid-rename window: MANIFEST is gone, .prev must serve.
        FlushCase{"manifest.retired", 1, false},
        // Installed: the flush is durable even though cleanup never ran.
        FlushCase{"manifest.installed", 1, true}),
    [](const ::testing::TestParamInfo<FlushCase>& labeled) {
      std::string name = labeled.param.point;
      for (char& c : name) {
        if (c == '.') c = '_';
      }
      return name + "_hit" + std::to_string(labeled.param.fire_at);
    });

// --- kill-point matrix: compaction ----------------------------------------

class LsmKillPointCompaction
    : public ::testing::TestWithParam<const char*> {};

TEST_P(LsmKillPointCompaction, NeverChangesLogicalContents) {
  ScopedTempDir tmp("aar_lsm_killc");
  const std::string dir = tmp.path("db");
  util::Rng rng(777);

  // Two flushed runs at level 0 (fanout 2): compaction has work to do.
  Counts durable;
  {
    Store store(dir, tight_options());
    merge_into(durable, apply_batch(store, rng, 250));
    store.flush();
    merge_into(durable, apply_batch(store, rng, 250));
    store.flush();

    ArmedCrash crash(GetParam());
    EXPECT_THROW(store.compact(), CrashPoint);
  }

  // Whatever the crash tore, a compaction is a pure re-arrangement:
  // recovered contents equal the pre-compaction contents, on every point.
  Store recovered(dir, tight_options());
  EXPECT_EQ(recovered.dump_text(), dump_of(durable)) << GetParam();

  // And a rerun of the interrupted compaction completes cleanly.  (After a
  // crash at manifest.installed the compaction already committed, so this
  // may be a no-op — the dump is the contract either way.)
  recovered.maintain();
  EXPECT_EQ(recovered.dump_text(), dump_of(durable));
}

INSTANTIATE_TEST_SUITE_P(Matrix, LsmKillPointCompaction,
                         ::testing::Values("compaction.block",
                                           "compaction.sealed",
                                           "manifest.tmp", "manifest.retired",
                                           "manifest.installed"),
                         [](const ::testing::TestParamInfo<const char*>& labeled) {
                           std::string name = labeled.param;
                           for (char& c : name) {
                             if (c == '.') c = '_';
                           }
                           return name;
                         });

// --- torn-write / corruption corpus ---------------------------------------

/// Fill a store with two committed flushes; returns the expected dump.
std::string seed_store(const std::string& dir) {
  util::Rng rng(1234);
  Counts durable;
  Store store(dir, tight_options());
  merge_into(durable, apply_batch(store, rng, 300));
  store.flush();
  merge_into(durable, apply_batch(store, rng, 300));
  store.flush();
  return dump_of(durable);
}

std::vector<std::string> run_files(const std::string& dir) {
  std::vector<std::string> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.starts_with("run-")) files.push_back(entry.path().string());
  }
  std::sort(files.begin(), files.end());
  return files;
}

TEST(LsmCorruption, TruncatedRunFilesNeverAbortTheOpen) {
  ScopedTempDir tmp("aar_lsm_trunc");
  const std::string dir = tmp.path("db");
  const std::string full = seed_store(dir);
  const std::vector<std::string> files = run_files(dir);
  ASSERT_FALSE(files.empty());
  const auto size = static_cast<std::size_t>(fs::file_size(files.back()));

  // Chop the newest run at a spread of lengths, including 0 and size-1.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{1}, size / 4, size / 2, size - 9,
        size - 1}) {
    fs::resize_file(files.back(), keep);
    {
      // Must not throw: the ladder steps down past the torn run.
      Store store(dir, tight_options());
      EXPECT_NE(store.stats().recovered_from, "MANIFEST")
          << "torn run at " << keep << " bytes accepted";
      // Whatever rung it landed on is a committed prefix — and the store
      // still accepts writes.
      store.add(1, 2, 3);
      store.flush();
    }
    // Restore the full state (and drop the reinstalled manifest pair) for
    // the next truncation length.
    fs::remove_all(dir);
    fs::create_directories(dir);
    [[maybe_unused]] const std::string again = seed_store(dir);
    const std::vector<std::string> fresh = run_files(dir);
    ASSERT_FALSE(fresh.empty());
  }
}

TEST(LsmCorruption, BitFlippedRunFallsBackToLastGoodManifest) {
  ScopedTempDir tmp("aar_lsm_flip");
  const std::string dir = tmp.path("db");
  const std::string full = seed_store(dir);
  const std::vector<std::string> files = run_files(dir);
  ASSERT_FALSE(files.empty());

  // Flip one bit in the middle of the newest run's data area.
  const std::string victim = files.back();
  const auto size = static_cast<std::size_t>(fs::file_size(victim));
  {
    std::fstream f(victim, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(static_cast<std::streamoff>(size / 2));
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x01);
    f.seekp(static_cast<std::streamoff>(size / 2));
    f.write(&byte, 1);
  }
  Store store(dir, tight_options());  // verify_on_open spots the flip
  EXPECT_NE(store.stats().recovered_from, "MANIFEST");
  EXPECT_NE(store.dump_text(), full);  // the newest flush fell away...
  const std::int64_t before = store.get_count(9, 9);  // surviving rung's sum
  store.add(9, 9, 9);  // ...but the store still serves
  store.flush();
  EXPECT_EQ(store.get_count(9, 9), before + 9);
}

TEST(LsmCorruption, MangledManifestStepsDownTheLadder) {
  ScopedTempDir tmp("aar_lsm_manifest");
  const std::string dir = tmp.path("db");
  const std::string full = seed_store(dir);

  // Corrupt MANIFEST (CRC line intact but content flipped).
  {
    std::fstream f(dir + "/MANIFEST",
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(10);
    f.write("X", 1);
  }
  {
    Store store(dir, tight_options());
    EXPECT_EQ(store.stats().recovered_from, "MANIFEST.prev");
  }

  // Now mangle both rungs: recovery lands on the empty store, not an abort.
  {
    std::ofstream(dir + "/MANIFEST", std::ios::trunc) << "garbage";
    std::ofstream(dir + "/MANIFEST.prev", std::ios::trunc) << "garbage";
  }
  Store store(dir, tight_options());
  EXPECT_EQ(store.stats().recovered_from, "empty");
  EXPECT_EQ(store.dump_text(), "");
  store.add(1, 1, 1);
  store.flush();
  EXPECT_EQ(store.get_count(1, 1), 1);
}

// --- determinism gate -----------------------------------------------------

/// One full crash-and-recover run: returns (manifest bytes, dump bytes)
/// after recovery.  Everything is seeded, so two invocations must match.
std::pair<std::string, std::string> crashed_run(const std::string& dir,
                                                const char* point) {
  util::Rng rng(20'26);
  {
    Store store(dir, tight_options());
    (void)apply_batch(store, rng, 300);
    store.flush();
    (void)apply_batch(store, rng, 300);
    ArmedCrash crash(point);
    try {
      store.flush();
      store.compact();
    } catch (const CrashPoint&) {
    }
  }
  Store recovered(dir, tight_options());
  return {recovered.manifest_bytes(), recovered.dump_text()};
}

TEST(LsmDeterminism, SameSeedSameKillPointRecoverIdentically) {
  for (const char* point :
       {"run.block", "manifest.retired", "compaction.sealed"}) {
    ScopedTempDir tmp("aar_lsm_det");
    const auto a = crashed_run(tmp.path("a"), point);
    const auto b = crashed_run(tmp.path("b"), point);
    EXPECT_EQ(a.first, b.first) << "manifest bytes diverged at " << point;
    EXPECT_EQ(a.second, b.second) << "dump bytes diverged at " << point;
  }
}

}  // namespace
}  // namespace aar::lsm
