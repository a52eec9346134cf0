// Quickstart: mine association rules from query-reply observations and use
// them to make forwarding decisions.
//
//   $ ./quickstart
//
// This is the 60-second tour of the core API:
//   1. generate a synthetic Gnutella-style trace (or bring your own pairs),
//   2. mine a RuleSet from one block with support pruning,
//   3. check its quality (coverage α, success ρ) on the next block,
//   4. ask a Forwarder where a query from a given neighbor should go.

#include <iostream>
#include <vector>

#include "core/forwarder.hpp"
#include "core/measures.hpp"
#include "core/ruleset.hpp"
#include "trace/generator.hpp"

int main() {
  using namespace aar;

  // 1. A small trace: two blocks of 5,000 answered query-reply pairs.
  trace::TraceConfig config;
  config.seed = 2006;
  config.block_size = 5'000;
  trace::TraceGenerator generator(config);
  const auto pairs = generator.generate_pairs(10'000);
  const auto yesterday = std::span(pairs).subspan(0, 5'000);
  const auto today = std::span(pairs).subspan(5'000, 5'000);

  // 2. Mine rules from yesterday's traffic.  A rule {host1} -> {host2} says:
  // queries arriving from neighbor host1 were answered through neighbor
  // host2 at least min_support times.
  constexpr std::uint32_t kMinSupport = 10;
  const core::RuleSet rules = core::RuleSet::build(yesterday, kMinSupport);
  std::cout << "mined " << rules.num_rules() << " rules over "
            << rules.num_antecedents() << " antecedent hosts\n";

  // 3. Quality on today's traffic (paper Eq. 1 and 2).
  const core::BlockMeasures quality = core::evaluate(rules, today);
  std::cout << "coverage (alpha) = " << quality.coverage()
            << "  success (rho) = " << quality.success() << "\n";

  // 4. Forwarding decisions: top-1 consequent, flood when no rule matches.
  core::Forwarder forwarder({.k = 1, .mode = core::SelectionMode::kTopK});
  util::Rng rng(1);
  std::vector<core::HostId> targets;  // reused: choose() appends to it
  std::size_t rule_routed = 0;
  std::size_t flooded = 0;
  for (const trace::QueryReplyPair& pair : today) {
    targets.clear();
    if (forwarder.choose(rules, pair.source_host, rng, targets) > 0) {
      ++rule_routed;
    } else {
      ++flooded;
    }
  }
  std::cout << "of " << today.size() << " queries: " << rule_routed
            << " rule-routed to one neighbor, " << flooded
            << " fell back to flooding\n";

  // Peek at a few concrete rules.
  std::cout << "\nsample rules (antecedent -> top consequent, support):\n";
  std::size_t shown = 0;
  rules.for_each([&](core::HostId antecedent,
                     std::span<const core::Consequent> consequents) {
    if (shown++ >= 5) return;
    std::cout << "  {" << antecedent << "} -> {" << consequents[0].neighbor
              << "}  support=" << consequents[0].support << "\n";
  });
  return 0;
}
