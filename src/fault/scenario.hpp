#pragma once
// Scenario files ("aar.faults.v1"): a complete, self-contained description
// of one faulty-overlay run — network shape, workload, search robustness
// knobs, the static FaultPlan, and the timed FaultSchedule — in a plain
// line-oriented text format (grammar in docs/FAULTS.md).
//
// The same file drives `aar_sim faults`, the seeded-replay golden tests, and
// the CI determinism gate: a scenario plus one 64-bit seed fully determines
// every SearchOutcome of the run.

#include <cstdint>
#include <iosfwd>
#include <string>

#include "fault/fault.hpp"

namespace aar::fault {

/// Everything a faulty-overlay run needs besides the seed.
struct Scenario {
  // --- network and workload ---
  std::size_t nodes = 200;
  std::size_t attach = 3;       ///< Barabási–Albert attachment degree
  std::size_t warmup = 300;     ///< un-measured warm-up queries
  std::size_t queries = 400;    ///< measured queries per epoch
  std::size_t epochs = 4;
  std::size_t churn = 0;        ///< peers replaced between epochs
  std::string policy = "association";  ///< association | flooding | shortcuts
  std::uint32_t ttl = 0;        ///< 0 = network default

  // --- search robustness (SearchOptions) ---
  std::uint32_t timeout = 0;    ///< stamp budget per search; 0 = unlimited
  std::uint32_t retries = 0;    ///< extra attempts after the primary pass
  std::uint32_t backoff = 2;    ///< stamps before the first retry (doubles)
  std::uint32_t jitter = 0;     ///< max extra backoff stamps per retry
  std::uint32_t widen = 1;      ///< top-k widening added per retry

  // --- faults ---
  FaultPlan plan;
  FaultSchedule schedule;
};

/// Parse a scenario stream.  The first non-blank line must be the magic
/// "aar.faults.v1"; '#' starts a comment.  Throws std::runtime_error with
/// the offending line on any malformed input, and when the file's `attach`
/// is not in [1, nodes).
[[nodiscard]] Scenario parse_scenario(std::istream& in);

/// Load a scenario file; throws std::runtime_error when unreadable.
[[nodiscard]] Scenario load_scenario(const std::string& path);

/// Serialize in the same format parse_scenario reads (round-trip safe).
void save_scenario(std::ostream& out, const Scenario& scenario);

}  // namespace aar::fault
