#pragma once
// Results and outcome fingerprints of fault experiments.  The runner
// itself, sim::run_fault_scenario (sim/experiment.hpp), builds an engine
// from a fault::Scenario and drives an epoch-structured interest workload;
// every run is a pure function of (scenario, seed), and the canonical
// SearchOutcome encoding and its FNV-1a fingerprint defined here are what
// the seeded-replay goldens and the CI determinism gate compare.

#include <cstdint>
#include <string>
#include <vector>

#include "overlay/policy.hpp"
#include "overlay/search.hpp"
#include "util/bytes.hpp"

namespace aar::overlay {

/// Aggregates for one measured epoch of a fault scenario.
struct FaultEpochStats {
  std::uint64_t searches = 0;
  std::uint64_t hits = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t degraded_floods = 0;
  std::uint64_t retries = 0;
  std::uint64_t dropped = 0;
  std::uint64_t messages = 0;
  std::uint64_t nodes_reached = 0;

  [[nodiscard]] double success_rate() const noexcept {
    return searches == 0
               ? 0.0
               : static_cast<double>(hits) / static_cast<double>(searches);
  }
  [[nodiscard]] double avg_messages() const noexcept {
    return searches == 0
               ? 0.0
               : static_cast<double>(messages) / static_cast<double>(searches);
  }
  [[nodiscard]] double avg_coverage() const noexcept {
    return searches == 0 ? 0.0
                         : static_cast<double>(nodes_reached) /
                               static_cast<double>(searches);
  }
};

struct FaultRunResult {
  std::vector<FaultEpochStats> epochs;
  /// Canonical byte encoding of every measured SearchOutcome, in order.
  std::vector<std::uint8_t> outcome_bytes;
  /// FNV-1a over outcome_bytes — the replay-identity fingerprint.
  std::uint64_t outcome_hash = 0;
  std::uint64_t searches = 0;
  std::uint64_t hits = 0;
};

/// Append the canonical encoding of one outcome (fixed-width little-endian
/// fields; documented in docs/FAULTS.md).  Exposed so tests can compare
/// individual outcomes against streams.
void append_outcome(std::vector<std::uint8_t>& out, const SearchOutcome& o);

/// FNV-1a 64-bit over a byte span (offset-basis seeded): util::fnv1a.
[[nodiscard]] inline std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  return util::fnv1a(bytes);
}

/// Policy factory for a scenario `policy` name: "flooding", "shortcuts",
/// or "association" (throws std::runtime_error otherwise).
[[nodiscard]] PolicyFactory scenario_policy_factory(const std::string& name);

}  // namespace aar::overlay
