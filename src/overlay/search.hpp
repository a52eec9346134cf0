#pragma once
// Search request options and outcome of one overlay query.
//
// A query propagates hop by hop under each peer's routing policy with TTL and
// duplicate suppression; QueryHits route back along the reverse query path,
// and every peer the reply passes notifies its policy — the feedback loop the
// paper's rules are mined from.  sim::Engine runs the search and counts every
// message so the traffic benches (N1/N2) can compare policies end to end.

#include <cstdint>
#include <vector>

namespace aar::overlay {

enum class SearchMode {
  kSingle,         ///< one propagation pass at the given TTL
  kExpandingRing,  ///< flooding passes at TTL 1, 2, 4, ... up to the given TTL
};

struct SearchOptions {
  std::uint32_t ttl = 0;  ///< 0 = network default
  SearchMode mode = SearchMode::kSingle;
  /// Force flood-on-miss regardless of the policy's preference.
  bool flood_fallback = false;

  // --- robustness under faults (docs/FAULTS.md) -------------------------
  // With the defaults below (no timeout, no retries) search behaves exactly
  // as it always has; the knobs only engage when set.

  /// Stamp budget for the whole search (propagation delays plus backoff
  /// between retries).  Messages that would arrive after the budget are
  /// lost to the timeout; a search that exhausts it without a delivered
  /// reply reports `timed_out`.  0 = unlimited.
  std::uint32_t timeout_stamps = 0;
  /// Extra attempts after the primary pass.  The ladder degrades gracefully:
  /// primary (rule-routed) pass, then widened top-k passes, then one final
  /// forced flood (`degraded_to_flood`).
  std::uint32_t max_retries = 0;
  /// Stamps waited before the first retry; doubles per retry (exponential
  /// backoff, clamped to at least 1 so retry stamps strictly increase).
  std::uint32_t backoff_base = 2;
  /// Max extra backoff stamps per retry, sampled uniformly (jittered
  /// re-probe).  0 = deterministic backoff.
  std::uint32_t backoff_jitter = 0;
  /// Top-k widening added per retry attempt (Query::widen).
  std::uint32_t widen_per_retry = 1;
};

struct SearchOutcome {
  bool hit = false;
  std::uint32_t hops_to_first_hit = 0;   ///< 0 when the origin had the file
  std::uint32_t replicas_found = 0;      ///< distinct nodes that answered
  std::uint32_t nodes_reached = 0;       ///< distinct nodes that saw the query
  std::uint64_t query_messages = 0;
  std::uint64_t reply_messages = 0;
  std::uint64_t probe_messages = 0;      ///< shortcut request/response pairs
  bool used_fallback = false;            ///< a flooding retry ran
  bool rule_routed = false;              ///< primary pass was policy-directed

  // --- robustness outcomes ----------------------------------------------
  bool timed_out = false;          ///< budget exhausted before a hit (⇒ !hit)
  bool degraded_to_flood = false;  ///< the retry ladder's final flood ran
  std::uint32_t retries_used = 0;  ///< retry attempts actually launched
  std::uint64_t elapsed_stamps = 0;  ///< virtual stamps the search consumed
  std::uint64_t dropped_messages = 0;  ///< messages lost to injected faults
  /// Virtual stamp at which each retry launched (strictly increasing).
  std::vector<std::uint64_t> retry_stamps;

  [[nodiscard]] std::uint64_t total_messages() const noexcept {
    return query_messages + reply_messages + probe_messages;
  }
};

}  // namespace aar::overlay
