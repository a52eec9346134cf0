// P4 — aar::lsm tiered rule storage: out-of-core ingest + lookup (ISSUE 10).
//
// The paper's 7-day trace assumes rule state that outlives both the process
// and RAM.  This bench drives the tiered store the way a long-running
// aar_node would: a sustained stream of (source, replying_neighbor) count
// deltas under a memtable budget far below the ingested volume (so the
// store MUST spill: flushes + leveled compactions while ingesting), then a
// point-lookup phase over a mix of resident and absent antecedents (the
// bloom path), then a full reopen — recovery on the multi-level directory
// the workload left behind.
//
// Acceptance bands:
//   * out-of-core: on-disk bytes >= 4x the memtable budget (the run was
//     genuinely disk-backed, not a memtable microbench),
//   * sustained ingest >= 100k deltas/sec, point lookups >= 50k/sec
//     (single-core CI floors, not hardware brags),
//   * sampled lookups byte-exact vs a shadow map, before AND after the
//     reopen (the recovery path serves the same sums).
//
// Usage: bench_p4_lsm [--smoke]   (reduced volume for CI)

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <unordered_map>

#include "bench_common.hpp"
#include "lsm/store.hpp"
#include "util/rng.hpp"

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

std::uintmax_t directory_bytes(const std::string& dir) {
  std::uintmax_t total = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace aar;
  const bool smoke = bench::parse_smoke(argc, argv, "bench_p4_lsm");

  bench::PerfRecord perf("p4_lsm");
  bench::print_header("P4", smoke
                                ? "lsm tiered rule storage (smoke)"
                                : "lsm tiered rule storage (out-of-core)");

  // Skewed antecedent population, like replying-neighbor counts in a real
  // overlay: a hot head plus a long cold tail that only the disk tiers see.
  const std::size_t kDeltas = smoke ? 400'000 : 4'000'000;
  const std::size_t kLookups = smoke ? 200'000 : 1'000'000;
  const std::uint32_t kHosts = smoke ? 20'000 : 120'000;

  lsm::StoreOptions options;
  options.memtable_bytes = 256u << 10;  // far below the ingested volume
  options.level_fanout = 4;

  const auto tmp =
      std::filesystem::temp_directory_path() / "aar_bench_p4_lsm";
  std::filesystem::remove_all(tmp);
  const std::string dir = tmp.string();

  std::unordered_map<std::uint64_t, std::int64_t> shadow;
  shadow.reserve(kDeltas / 4);
  util::Rng rng(20'06);

  // --- sustained ingest ----------------------------------------------------
  double ingest_s = 0.0;
  lsm::Store::Stats ingest_stats;
  {
    lsm::Store store(dir, options);
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < kDeltas; ++i) {
      // Zipf-ish: half the touches land on a small hot set, the rest spread
      // over the whole population (those keys go cold and stay on disk).
      const bool hot = rng.below(2) == 0;
      const auto a = static_cast<std::uint32_t>(
          hot ? rng.below(256) : rng.below(kHosts));
      const auto c = static_cast<std::uint32_t>(rng.below(64));
      store.add(a, c, 1);
      shadow[lsm::make_key(a, c)] += 1;
    }
    store.flush();
    ingest_s = seconds_since(start);
    ingest_stats = store.stats();  // flush/compaction counts are per-instance
  }
  const double ingest_rate = static_cast<double>(kDeltas) / ingest_s;
  const auto disk_bytes = directory_bytes(dir);
  const double disk_ratio = static_cast<double>(disk_bytes) /
                            static_cast<double>(options.memtable_bytes);

  // --- point lookups (reopen: every read goes through recovery state) ------
  lsm::Store store(dir, options);
  const bool recovered_clean = store.stats().recovered_from == "MANIFEST";
  std::size_t mismatches = 0;
  std::uint64_t sum = 0;
  const auto lookup_start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < kLookups; ++i) {
    // 1-in-4 probes an antecedent that was never written: the bloom
    // filters answer most of those without touching a block.
    const bool absent = rng.below(4) == 0;
    const auto a = static_cast<std::uint32_t>(
        absent ? kHosts + rng.below(kHosts) : rng.below(kHosts));
    const auto c = static_cast<std::uint32_t>(rng.below(64));
    const std::int64_t got = store.get_count(a, c);
    sum += static_cast<std::uint64_t>(got);
    const auto it = shadow.find(lsm::make_key(a, c));
    const std::int64_t want = it == shadow.end() ? 0 : it->second;
    if (got != want) ++mismatches;
  }
  const double lookup_s = seconds_since(lookup_start);
  const double lookup_rate = static_cast<double>(kLookups) / lookup_s;

  const lsm::Store::Stats stats = store.stats();
  util::Table table({"phase", "seconds", "ops/sec"});
  table.row({"ingest", util::Table::num(ingest_s, 2),
             util::Table::num(ingest_rate, 0)});
  table.row({"lookup", util::Table::num(lookup_s, 2),
             util::Table::num(lookup_rate, 0)});
  table.print(std::cout);
  std::cout << "ingest: " << ingest_stats.flushes << " flushes, "
            << ingest_stats.compactions << " compactions; store now "
            << stats.runs << " runs over " << stats.levels << " levels, "
            << stats.entries_on_disk << " entries (" << disk_bytes
            << " bytes on disk, memtable budget " << options.memtable_bytes
            << ")\n";

  const std::vector<bench::PaperRow> rows{
      {"on-disk bytes / memtable budget", ">= 4 (out-of-core)", disk_ratio,
       disk_ratio >= 4.0},
      {"ingest deltas/sec", ">= 100k (CI floor)", ingest_rate,
       ingest_rate >= 100'000.0},
      {"point lookups/sec", ">= 50k (CI floor)", lookup_rate,
       lookup_rate >= 50'000.0},
      {"lookup mismatches vs shadow", "0 (exact)",
       static_cast<double>(mismatches), mismatches == 0},
      {"reopen recovered from MANIFEST", "1 (clean recovery)",
       recovered_clean ? 1.0 : 0.0, recovered_clean},
  };

  std::filesystem::remove_all(tmp);
  perf.set_pairs(static_cast<double>(kDeltas));
  perf.extra("ingest_deltas_per_sec", ingest_rate);
  perf.extra("lookup_per_sec", lookup_rate);
  perf.extra("disk_over_memtable", disk_ratio);
  perf.extra("flushes", static_cast<double>(ingest_stats.flushes));
  perf.extra("compactions", static_cast<double>(ingest_stats.compactions));
  perf.extra("lookup_checksum", static_cast<double>(sum));
  return perf.finish(bench::print_comparison(rows));
}
