#pragma once
// Association rule sets for query routing (paper Section III-B.1).
//
// Rules have the form {host1} -> {host2}: host1 is a neighbor the node
// receives queries from (the antecedent), host2 the neighbor that was the
// next hop on a path that produced hits for host1's earlier queries (the
// consequent).  A rule set is mined from a window of query–reply pairs by
// counting (source, replier) co-occurrences and support-pruning pairs seen
// fewer than a threshold number of times.

#include <cstdint>
#include <iosfwd>
#include <span>
#include <unordered_map>
#include <vector>

#include "trace/record.hpp"
#include "util/rng.hpp"

namespace aar::mining {
class IncrementalRuleMiner;  // the single befriended RuleSet writer
}  // namespace aar::mining

namespace aar::core {

using trace::HostId;
using trace::QueryReplyPair;

/// One consequent of an antecedent, with its support count.
struct Consequent {
  HostId neighbor = trace::kNoHost;
  std::uint32_t support = 0;

  friend bool operator==(const Consequent&, const Consequent&) = default;
};

/// Immutable mined rule set: antecedent -> consequents sorted by support
/// (descending, ties by neighbor id for determinism).
class RuleSet {
 public:
  RuleSet() = default;

  /// Mine a rule set from a window of pairs.  Pairs whose (source, replier)
  /// combination occurs fewer than `min_support` times are pruned — the
  /// paper's support-pruning step.  Throws std::invalid_argument unless
  /// min_support >= 1.
  ///
  /// `min_confidence` additionally prunes rules whose confidence
  /// count(source, replier) / count(source) falls below it — the
  /// confidence-based pruning the paper proposes in Section VI ("could be
  /// one way of reducing the size of rule sets while retaining high coverage
  /// and success").  0 disables it.
  [[nodiscard]] static RuleSet build(std::span<const QueryReplyPair> pairs,
                                     std::uint32_t min_support,
                                     double min_confidence = 0.0);

  /// True when some rule has this antecedent (the coverage test).
  [[nodiscard]] bool covers(HostId antecedent) const {
    return rules_.contains(antecedent);
  }

  /// True when {antecedent} -> {consequent} is a rule (the success test).
  [[nodiscard]] bool matches(HostId antecedent, HostId consequent) const;

  /// All consequents for an antecedent, highest support first; empty span if
  /// the antecedent is unknown.
  [[nodiscard]] std::span<const Consequent> consequents(HostId antecedent) const;

  /// The k highest-support consequents (paper: "sent to the k neighbors with
  /// the highest support").
  [[nodiscard]] std::vector<HostId> top_k(HostId antecedent, std::size_t k) const;

  /// A uniformly random subset of up to k consequents (paper: "sent to a
  /// random subset of neighbors as with k-random walks").
  [[nodiscard]] std::vector<HostId> random_k(HostId antecedent, std::size_t k,
                                             util::Rng& rng) const;

  [[nodiscard]] std::size_t num_antecedents() const noexcept { return rules_.size(); }
  [[nodiscard]] std::size_t num_rules() const noexcept { return rule_count_; }
  [[nodiscard]] bool empty() const noexcept { return rules_.empty(); }

  /// Iteration support (tests, serialization).
  [[nodiscard]] const std::unordered_map<HostId, std::vector<Consequent>>& rules()
      const noexcept {
    return rules_;
  }

  /// Serialize as "antecedent,consequent,support" CSV rows (with header),
  /// deterministically ordered.  A node can persist its mined rules across
  /// restarts or ship them to a peer.
  void save(std::ostream& os) const;

  /// Inverse of save().  Throws std::runtime_error on malformed input.
  [[nodiscard]] static RuleSet load(std::istream& is);

  friend bool operator==(const RuleSet& a, const RuleSet& b) {
    return a.rules_ == b.rules_;
  }

 private:
  // RuleSet is immutable to every consumer; the incremental miner
  // (src/mining/) is its one writer, updating only changed antecedents in
  // place so snapshots avoid re-materializing the whole set.
  friend class aar::mining::IncrementalRuleMiner;

  std::unordered_map<HostId, std::vector<Consequent>> rules_;
  std::size_t rule_count_ = 0;
};

}  // namespace aar::core
