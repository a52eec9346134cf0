// A1 — forwarding fan-out ablation (paper Section III-B.1).
//
// "In these situations, future queries can either be sent to a random subset
// of neighbors as with k-random walks, or sent to the k neighbors with the
// highest support."  This bench quantifies the choice: under a Sliding
// Window rule set, what fraction of covered queries would actually have
// reached content if forwarded to only the top-k (or random-k) consequents?

#include <iostream>

#include "bench_common.hpp"
#include "core/forwarder.hpp"

int main() {
  aar::bench::PerfRecord perf("a1_topk");
  using namespace aar;
  bench::print_header("A1",
                      "top-k vs random-k forwarding fan-out (§III-B.1)");

  const auto pairs = bench::standard_trace(120);
  constexpr std::size_t kBlockSize = 10'000;
  const std::size_t blocks = pairs.size() / kBlockSize;

  struct Variant {
    std::string label;
    core::ForwarderConfig config;
  };
  const std::vector<Variant> variants{
      {"top-1", {.k = 1, .mode = core::SelectionMode::kTopK}},
      {"top-2", {.k = 2, .mode = core::SelectionMode::kTopK}},
      {"top-3", {.k = 3, .mode = core::SelectionMode::kTopK}},
      {"random-1", {.k = 1, .mode = core::SelectionMode::kRandomK}},
      {"random-2", {.k = 2, .mode = core::SelectionMode::kRandomK}},
      {"all consequents", {.k = 1'000, .mode = core::SelectionMode::kTopK}},
  };

  util::Table table({"fan-out", "avg coverage", "avg success", "fan-out cost"});
  std::vector<double> successes;
  util::Rng rng(31);
  for (const Variant& variant : variants) {
    const core::Forwarder forwarder(variant.config);
    util::Running coverage;
    util::Running success;
    util::Running fan_out;
    // Sliding-window protocol: mine block b-1, evaluate forwarding on b.
    for (std::size_t b = 1; b < blocks; ++b) {
      const auto train =
          std::span(pairs).subspan((b - 1) * kBlockSize, kBlockSize);
      const auto test = std::span(pairs).subspan(b * kBlockSize, kBlockSize);
      const core::RuleSet rules = core::RuleSet::build(train, 10);
      const core::BlockMeasures m =
          core::evaluate_forwarding(rules, test, forwarder, rng);
      coverage.add(m.coverage());
      success.add(m.success());
      // Average number of neighbors a rule-routed query is sent to.
      double total_targets = 0.0;
      std::size_t decided = 0;
      rules.for_each([&](core::HostId, std::span<const core::Consequent> consequents) {
        total_targets += static_cast<double>(
            std::min<std::size_t>(variant.config.k, consequents.size()));
        ++decided;
      });
      if (decided > 0) fan_out.add(total_targets / static_cast<double>(decided));
    }
    successes.push_back(success.mean());
    table.row({variant.label, util::Table::num(coverage.mean(), 3),
               util::Table::num(success.mean(), 3),
               util::Table::num(fan_out.mean(), 2)});
  }
  table.print(std::cout);

  // successes: [top1, top2, top3, rand1, rand2, all]
  std::vector<bench::PaperRow> rows{
      {"top-1 captures the majority of rule-set success",
       "k=1 is cheap and good", successes[0] / successes[5],
       successes[0] > 0.55 * successes[5]},
      {"top-2 nearly saturates the rule set", "small k suffices",
       successes[1] / successes[5], successes[1] > 0.9 * successes[5]},
      {"top-k beats random-k at k=1", "support ranking is informative",
       successes[0] - successes[3], successes[0] >= successes[3]},
      {"top-k beats random-k at k=2", "support ranking is informative",
       successes[1] - successes[4], successes[1] >= successes[4]},
      {"success grows with k", "monotone in fan-out",
       successes[2] - successes[0], successes[2] >= successes[0]},
  };
  return perf.finish(bench::print_comparison(rows));
}
