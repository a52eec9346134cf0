#include "core/forwarder.hpp"

#include <algorithm>

namespace aar::core {

namespace {

/// Append the targets chosen from `all` (non-empty, ranked) to `out`.
void append_targets(std::span<const Consequent> all, SelectionMode mode,
                    std::size_t k, util::Rng& rng, std::vector<HostId>& out) {
  const std::size_t first = out.size();
  if (mode == SelectionMode::kTopK) {  // a prefix of the ranked list
    for (std::size_t i = 0; i < all.size() && i < k; ++i) {
      out.push_back(all[i].neighbor);
    }
    return;
  }
  // A uniformly random subset of up to k (paper: "sent to a random subset of
  // neighbors as with k-random walks"): shuffle them all, keep the first k.
  for (const Consequent& c : all) out.push_back(c.neighbor);
  rng.shuffle(std::span<HostId>(out).subspan(first));
  if (out.size() - first > k) out.resize(first + k);
}

}  // namespace

std::size_t Forwarder::choose(const RuleSet& rules, HostId source,
                              util::Rng& rng, std::vector<HostId>& out,
                              std::size_t extra_k) const {
  const std::span<const Consequent> all = rules.consequents(source);
  if (all.empty()) return 0;
  const std::size_t first = out.size();
  append_targets(all, config_.mode, config_.k + extra_k, rng, out);
  return out.size() - first;
}

BlockMeasures evaluate_forwarding(const RuleSet& rules,
                                  std::span<const QueryReplyPair> block,
                                  const Forwarder& forwarder, util::Rng& rng) {
  // One forwarding decision per query, made at its first sight: the chosen
  // targets of every query sit in one buffer, and `sent[query]` is the
  // range of the query's (first-sight index) targets in it.
  struct Range {
    std::uint32_t begin = 0;
    std::uint32_t size = 0;
  };
  GuidStates states;
  std::vector<HostId> chosen;
  std::vector<Range> sent;
  sent.reserve(block.size());
  return evaluate_block(
      states, block,
      [&](const QueryReplyPair& pair, std::uint32_t) {
        // Called once per query in first-sight order: sent[query] lands here.
        const auto begin = static_cast<std::uint32_t>(chosen.size());
        const auto size = static_cast<std::uint32_t>(
            forwarder.choose(rules, pair.source_host, rng, chosen));
        sent.push_back(Range{begin, size});
        return size != 0;
      },
      [&](const QueryReplyPair& pair, std::uint32_t query) {
        const Range range = sent[query];
        const auto first = chosen.begin() + range.begin;
        return std::find(first, first + range.size, pair.replying_neighbor) !=
               first + range.size;
      },
      [](const QueryReplyPair&) {});
}

}  // namespace aar::core
