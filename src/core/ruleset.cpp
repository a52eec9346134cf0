#include "core/ruleset.hpp"

#include <algorithm>
#include <charconv>
#include <istream>
#include <ostream>
#include <stdexcept>

namespace aar::core {

namespace {
/// Pack a (source, replier) pair into one hashable 64-bit key.
constexpr std::uint64_t pair_key(HostId source, HostId replier) noexcept {
  return (static_cast<std::uint64_t>(source) << 32) | replier;
}
}  // namespace

RuleSet RuleSet::build(std::span<const QueryReplyPair> pairs,
                       std::uint32_t min_support, double min_confidence) {
  if (min_support < 1) {
    throw std::invalid_argument("RuleSet::build: min_support must be >= 1");
  }
  std::unordered_map<std::uint64_t, std::uint32_t> counts;
  counts.reserve(pairs.size() / 4 + 16);
  std::unordered_map<HostId, std::uint32_t> source_totals;
  for (const QueryReplyPair& pair : pairs) {
    ++counts[pair_key(pair.source_host, pair.replying_neighbor)];
    ++source_totals[pair.source_host];
  }

  RuleSet ruleset;
  for (const auto& [key, count] : counts) {
    if (count < min_support) continue;  // support pruning
    const auto source = static_cast<HostId>(key >> 32);
    const auto replier = static_cast<HostId>(key & 0xffffffffu);
    if (min_confidence > 0.0) {  // confidence pruning (paper §VI)
      const double confidence = static_cast<double>(count) /
                                static_cast<double>(source_totals.at(source));
      if (confidence + 1e-12 < min_confidence) continue;
    }
    ruleset.rules_[source].push_back(Consequent{replier, count});
    ++ruleset.rule_count_;
  }
  for (auto& [source, consequents] : ruleset.rules_) {
    std::sort(consequents.begin(), consequents.end(),
              [](const Consequent& a, const Consequent& b) {
                if (a.support != b.support) return a.support > b.support;
                return a.neighbor < b.neighbor;
              });
  }
  return ruleset;
}

bool RuleSet::matches(HostId antecedent, HostId consequent) const {
  const auto it = rules_.find(antecedent);
  if (it == rules_.end()) return false;
  return std::any_of(it->second.begin(), it->second.end(),
                     [consequent](const Consequent& c) {
                       return c.neighbor == consequent;
                     });
}

std::span<const Consequent> RuleSet::consequents(HostId antecedent) const {
  const auto it = rules_.find(antecedent);
  if (it == rules_.end()) return {};
  return it->second;
}

std::vector<HostId> RuleSet::top_k(HostId antecedent, std::size_t k) const {
  const auto all = consequents(antecedent);
  std::vector<HostId> out;
  out.reserve(std::min(k, all.size()));
  for (std::size_t i = 0; i < all.size() && i < k; ++i) {
    out.push_back(all[i].neighbor);
  }
  return out;
}

std::vector<HostId> RuleSet::random_k(HostId antecedent, std::size_t k,
                                      util::Rng& rng) const {
  const auto all = consequents(antecedent);
  std::vector<HostId> pool;
  pool.reserve(all.size());
  for (const Consequent& c : all) pool.push_back(c.neighbor);
  rng.shuffle(std::span<HostId>(pool));
  if (pool.size() > k) pool.resize(k);
  return pool;
}

void RuleSet::save(std::ostream& os) const {
  os << "antecedent,consequent,support\n";
  std::vector<HostId> antecedents;
  antecedents.reserve(rules_.size());
  for (const auto& [antecedent, consequents] : rules_) {
    antecedents.push_back(antecedent);
  }
  std::sort(antecedents.begin(), antecedents.end());
  for (HostId antecedent : antecedents) {
    for (const Consequent& c : rules_.at(antecedent)) {
      os << antecedent << ',' << c.neighbor << ',' << c.support << '\n';
    }
  }
}

RuleSet RuleSet::load(std::istream& is) {
  std::string line;
  if (!std::getline(is, line) || line != "antecedent,consequent,support") {
    throw std::runtime_error("RuleSet::load: missing header");
  }
  RuleSet ruleset;
  std::size_t line_number = 1;
  while (std::getline(is, line)) {
    ++line_number;
    if (line.empty()) continue;
    HostId antecedent = 0;
    HostId consequent = 0;
    std::uint32_t support = 0;
    const char* cursor = line.data();
    const char* end = line.data() + line.size();
    auto read_field = [&](auto& value, char terminator) {
      const auto [ptr, ec] = std::from_chars(cursor, end, value);
      if (ec != std::errc{} ||
          (terminator != 0 && (ptr == end || *ptr != terminator)) ||
          (terminator == 0 && ptr != end)) {
        throw std::runtime_error("RuleSet::load: malformed line " +
                                 std::to_string(line_number));
      }
      cursor = terminator != 0 ? ptr + 1 : ptr;
    };
    read_field(antecedent, ',');
    read_field(consequent, ',');
    read_field(support, '\0');
    ruleset.rules_[antecedent].push_back(Consequent{consequent, support});
    ++ruleset.rule_count_;
  }
  for (auto& [antecedent, consequents] : ruleset.rules_) {
    std::sort(consequents.begin(), consequents.end(),
              [](const Consequent& a, const Consequent& b) {
                if (a.support != b.support) return a.support > b.support;
                return a.neighbor < b.neighbor;
              });
  }
  return ruleset;
}

}  // namespace aar::core
