#pragma once
// Rule-set quality measures (paper Section III-B.2, Equations 1 and 2).
//
//   coverage α = n / N   — N: unique answered queries in the test block;
//                          n: those whose source host is an antecedent.
//   success  ρ = s / n   — s: covered queries where (source host, replying
//                          neighbor) is an (antecedent, consequent) rule.
//
// Both are needed: high ρ with low α means the rules that exist route well
// but match few queries; high α with low ρ means many queries match rules
// that forward to the wrong neighbor.
//
// Edge-case convention: both ratios are TOTAL functions, never NaN.
//   * α ≡ 0 when N = 0 (an empty block asks no queries, so none are covered);
//   * ρ ≡ 0 when n = 0 (no covered queries means no routing successes —
//     0/0 is resolved pessimistically, not propagated as NaN);
//   * a block whose every query is covered but none successful yields
//     α = 1, ρ = 0 (the two measures are independent by construction).
// Downstream consumers (per-block series, adaptive thresholds, metrics
// export) rely on finite values; tests/test_measures.cpp locks this in.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/ruleset.hpp"
#include "trace/record.hpp"

namespace aar::core {

class RuleProbe;

struct BlockMeasures {
  std::uint64_t total_queries = 0;   ///< N  (unique answered queries)
  std::uint64_t covered = 0;         ///< n
  std::uint64_t successful = 0;      ///< s

  /// α = n / N; 0 for an empty block.
  [[nodiscard]] double coverage() const noexcept {
    return total_queries == 0
               ? 0.0
               : static_cast<double>(covered) / static_cast<double>(total_queries);
  }
  /// ρ = s / n; 0 when nothing is covered.
  [[nodiscard]] double success() const noexcept {
    return covered == 0
               ? 0.0
               : static_cast<double>(successful) / static_cast<double>(covered);
  }
};

/// Per-block query state keyed by GUID: one open-addressing table reused
/// across blocks.  Each slot carries the generation of the block that wrote
/// it, so begin_block() forgets the previous block's queries in O(1) and a
/// steady-state block allocates nothing.  The caller owns the table (one per
/// Strategy), so concurrent evaluations never share one.
class GuidStates {
 public:
  static constexpr std::uint32_t kCovered = 1;     ///< counted toward n
  static constexpr std::uint32_t kSuccessful = 2;  ///< counted toward s

  /// A GUID's state word in the current block: its first-sight index in
  /// the block shifted past two flag bits, kCovered and kSuccessful.
  static constexpr unsigned kFlagBits = 2;

 private:
  struct Slot {
    trace::Guid guid = 0;
    std::uint32_t generation = 0;  ///< block that wrote the slot; 0 = never
    std::uint32_t state = 0;
  };

 public:
  /// One block's walk over the table.  It holds the table's geometry and the
  /// block's distinct-GUID counter by value, so the evaluating thread keeps
  /// them in its own registers and stack for the whole block and writes no
  /// line of the table's owner per pair.
  class Pass {
   public:
    /// The state word of `guid`; `fresh` is set on its first sight this
    /// block, when the word holds the new index and no flag.  The reference
    /// stays valid for the whole block (the table never rehashes within
    /// one).
    std::uint32_t& visit(trace::Guid guid, bool& fresh) {
      for (std::size_t index = spread(guid);; index = (index + 1) & mask_) {
        Slot& slot = slots_[index];
        if (slot.generation != generation_) {
          slot.guid = guid;
          slot.generation = generation_;
          slot.state = (queries_++ & kMaxQuery) << kFlagBits;  // begin_block bounds it
          fresh = true;
          return slot.state;
        }
        if (slot.guid == guid) {
          fresh = false;
          return slot.state;
        }
      }
    }

    /// Start loading the home slot of a GUID visited a few pairs later: the
    /// table outgrows the first-level cache, and its slots are hit at random.
    void prefetch(trace::Guid guid) const noexcept {
      __builtin_prefetch(slots_ + spread(guid), 1);
    }

   private:
    friend class GuidStates;
    Pass(Slot* slots, std::size_t mask, unsigned shift,
         std::uint32_t generation) noexcept
        : slots_(slots), mask_(mask), shift_(shift), generation_(generation) {}

    /// Fibonacci hash of the folded GUID into the table's top index bits.
    [[nodiscard]] std::size_t spread(trace::Guid guid) const noexcept {
      return static_cast<std::size_t>(((guid ^ (guid >> 32)) *
                                       0x9E3779B97F4A7C15ull) >>
                                      shift_);
    }

    Slot* slots_;
    std::size_t mask_;
    unsigned shift_;
    std::uint32_t generation_;
    std::uint32_t queries_ = 0;  ///< distinct GUIDs seen this block
  };

  /// Forget every GUID and size the table for a block of `pairs` pairs (at
  /// most one-third full, since a block holds at most `pairs` distinct
  /// GUIDs: probe runs stay short on the per-pair path), and start the
  /// block's Pass.  Throws std::length_error past 2^30 pairs, the most the
  /// first-sight index can number.
  Pass begin_block(std::size_t pairs);

 private:
  static constexpr std::uint32_t kMaxQuery = (1u << 30) - 1;

  std::vector<Slot> slots_;  // capacity zero or a power of two >= 16
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
  std::uint32_t generation_ = 0;
};

/// Pairs ahead of the evaluated one whose GUID slot evaluate_block prefetches.
inline constexpr std::size_t kGuidPrefetchDistance = 8;

/// The one Eq. 1/2 loop every block evaluator shares.  For each pair, in
/// block order: on the first sight of its GUID, count it toward N and ask
/// `covers(pair, query)` whether it counts toward n (`query` is the GUID's
/// first-sight index, for callers that keep per-query side state); then ask
/// `matches(pair, query)`, for every pair, whether this reply is a success.
/// The answer counts toward s only while the query is covered and has no
/// success yet; the flags are folded in with arithmetic, not branches.  The
/// prequential strategies test and train the pair in `matches`.
template <typename Covers, typename Matches>
BlockMeasures evaluate_block(GuidStates& states,
                             std::span<const QueryReplyPair> block,
                             Covers&& covers, Matches&& matches) {
  GuidStates::Pass pass = states.begin_block(block.size());
  std::uint64_t total = 0;
  std::uint64_t covered = 0;
  std::uint64_t successful = 0;
  for (std::size_t i = 0; i < block.size(); ++i) {
    const QueryReplyPair& pair = block[i];
    if (i + kGuidPrefetchDistance < block.size()) {
      pass.prefetch(block[i + kGuidPrefetchDistance].guid);
    }
    bool fresh = false;
    std::uint32_t& state = pass.visit(pair.guid, fresh);
    const std::uint32_t query = state >> GuidStates::kFlagBits;
    std::uint32_t flags = state & (GuidStates::kCovered | GuidStates::kSuccessful);
    if (fresh) {
      const bool hit = covers(pair, query);
      covered += hit;
      flags = hit ? GuidStates::kCovered : 0u;
    }
    total += fresh;
    const bool success =
        matches(pair, query) & (flags == GuidStates::kCovered);
    successful += success;
    state = (query << GuidStates::kFlagBits) | flags |
            (success ? GuidStates::kSuccessful : 0u);
  }
  return BlockMeasures{total, covered, successful};
}

/// Evaluate a rule set against a test block of query–reply pairs.
///
/// Queries are identified by GUID: a query answered through several
/// neighbors counts once toward N and n, and toward s if *any* of its
/// replying neighbors matches a rule for its source host.
[[nodiscard]] BlockMeasures evaluate(const RuleSet& ruleset,
                                     std::span<const QueryReplyPair> block);

/// As above, with a caller-owned GUID table reused across calls.
[[nodiscard]] BlockMeasures evaluate(const RuleSet& ruleset,
                                     std::span<const QueryReplyPair> block,
                                     GuidStates& states);

/// As above, against a probe of the rule set: the kernel the block
/// strategies run, each with a probe it rebuilds when it regenerates.
[[nodiscard]] BlockMeasures evaluate(const RuleProbe& probe,
                                     std::span<const QueryReplyPair> block,
                                     GuidStates& states);

}  // namespace aar::core
