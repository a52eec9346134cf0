#include "core/ruleset.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <unordered_map>

namespace aar::core {

namespace {
/// Pack a (source, replier) pair into one hashable 64-bit key.
constexpr std::uint64_t pair_key(HostId source, HostId replier) noexcept {
  return (static_cast<std::uint64_t>(source) << 32) | replier;
}

/// Support descending, ties by neighbor id: the rank order of a list.
bool ranks_before(const Consequent& a, const Consequent& b) noexcept {
  if (a.support != b.support) return a.support > b.support;
  return a.neighbor < b.neighbor;
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

  std::vector<std::pair<HostId, Consequent>> entries;
  for (const auto& [key, count] : counts) {
    if (count < min_support) continue;  // support pruning
    const auto source = static_cast<HostId>(key >> 32);
    const auto replier = static_cast<HostId>(key & 0xffffffffu);
    if (min_confidence > 0.0) {  // confidence pruning (paper §VI)
      const double confidence = static_cast<double>(count) /
                                static_cast<double>(source_totals.at(source));
      if (confidence + 1e-12 < min_confidence) continue;
    }
    entries.emplace_back(source, Consequent{replier, count});
  }
  return from_entries(entries);
}

RuleSet RuleSet::from_entries(std::vector<std::pair<HostId, Consequent>>& entries) {
  std::sort(entries.begin(), entries.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first < b.first;
    return ranks_before(a.second, b.second);
  });
  RuleSet ruleset;
  ruleset.consequents_.reserve(entries.size());
  std::vector<Consequent> ranked;
  for (std::size_t i = 0; i < entries.size();) {
    const HostId antecedent = entries[i].first;
    ranked.clear();
    for (; i < entries.size() && entries[i].first == antecedent; ++i) {
      ranked.push_back(entries[i].second);
    }
    ruleset.assign(antecedent, ranked);
  }
  return ruleset;
}

std::size_t RuleSet::probe(HostId antecedent) const noexcept {
  std::size_t i = home(antecedent);
  while (index_[i].size != 0 && index_[i].antecedent != antecedent) {
    i = (i + 1) & mask_;
  }
  return i;
}

void RuleSet::assign(HostId antecedent, std::span<const Consequent> ranked) {
  const auto n = static_cast<std::uint32_t>(ranked.size());
  if (index_.empty()) {
    if (n == 0) return;
    grow_index();
  }
  std::size_t i = probe(antecedent);
  if (index_[i].size == 0) {  // a new antecedent
    if (n == 0) return;
    if ((antecedents_ + 1) * 2 > index_.size()) {
      grow_index();
      i = probe(antecedent);
    }
    index_[i].antecedent = antecedent;
    ++antecedents_;
  } else if (n == 0) {  // the antecedent leaves
    rule_count_ -= index_[i].size;
    dead_ += index_[i].capacity;
    --antecedents_;
    erase_slot(i);
    if (dead_ > rule_count_) compact();
    return;
  }
  Slot& slot = index_[i];
  rule_count_ = rule_count_ - slot.size + n;
  if (n > slot.capacity) {  // relocate to the end of the array
    dead_ += slot.capacity;
    slot.begin = static_cast<std::uint32_t>(consequents_.size());
    slot.capacity = n;
    consequents_.insert(consequents_.end(), ranked.begin(), ranked.end());
  } else {
    std::copy(ranked.begin(), ranked.end(),
              consequents_.begin() + static_cast<std::ptrdiff_t>(slot.begin));
  }
  slot.size = n;
  if (dead_ > rule_count_) compact();
}

void RuleSet::grow_index() {
  std::vector<Slot> old = std::move(index_);
  const std::size_t capacity = std::max<std::size_t>(8, old.size() * 2);
  index_.assign(capacity, Slot{});
  mask_ = capacity - 1;
  shift_ = 64u - static_cast<unsigned>(std::countr_zero(capacity));
  for (const Slot& slot : old) {
    if (slot.size != 0) index_[probe(slot.antecedent)] = slot;
  }
}

void RuleSet::erase_slot(std::size_t hole) noexcept {
  // Backward-shift deletion: pull each later slot of the probe run into the
  // hole unless that would move it before its home, so no tombstones exist.
  for (std::size_t next = (hole + 1) & mask_; index_[next].size != 0;
       next = (next + 1) & mask_) {
    const std::size_t from_home = (next - home(index_[next].antecedent)) & mask_;
    if (from_home >= ((next - hole) & mask_)) {
      index_[hole] = index_[next];
      hole = next;
    }
  }
  index_[hole] = Slot{};
}

void RuleSet::compact() {
  std::vector<Consequent> live;
  live.reserve(rule_count_);
  for (Slot& slot : index_) {
    if (slot.size == 0) continue;
    const auto first =
        consequents_.begin() + static_cast<std::ptrdiff_t>(slot.begin);
    slot.begin = static_cast<std::uint32_t>(live.size());
    slot.capacity = slot.size;
    live.insert(live.end(), first, first + slot.size);
  }
  consequents_ = std::move(live);
  dead_ = 0;
}

std::vector<HostId> RuleSet::sorted_antecedents() const {
  std::vector<HostId> antecedents;
  antecedents.reserve(antecedents_);
  for (const Slot& slot : index_) {
    if (slot.size != 0) antecedents.push_back(slot.antecedent);
  }
  std::sort(antecedents.begin(), antecedents.end());
  return antecedents;
}

bool operator==(const RuleSet& a, const RuleSet& b) {
  if (a.antecedents_ != b.antecedents_ || a.rule_count_ != b.rule_count_) {
    return false;
  }
  for (const RuleSet::Slot& slot : a.index_) {
    if (slot.size == 0) continue;
    const auto mine = a.consequents(slot.antecedent);
    const auto theirs = b.consequents(slot.antecedent);
    if (!std::equal(mine.begin(), mine.end(), theirs.begin(), theirs.end())) {
      return false;
    }
  }
  return true;
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

void RuleSet::save(std::ostream& os) const {
  os << "antecedent,consequent,support\n";
  for_each([&](HostId antecedent, std::span<const Consequent> consequents) {
    for (const Consequent& c : consequents) {
      os << antecedent << ',' << c.neighbor << ',' << c.support << '\n';
    }
  });
}

RuleSet RuleSet::load(std::istream& is) {
  std::string line;
  if (!std::getline(is, line) || line != "antecedent,consequent,support") {
    throw std::runtime_error("RuleSet::load: missing header");
  }
  std::vector<std::pair<HostId, Consequent>> entries;
  std::unordered_map<std::uint64_t, std::size_t> first_line;  // rule -> line
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
    if (support == 0) {
      throw std::runtime_error("RuleSet::load: zero support on line " +
                               std::to_string(line_number));
    }
    const auto [seen, fresh] =
        first_line.emplace(pair_key(antecedent, consequent), line_number);
    if (!fresh) {
      throw std::runtime_error(
          "RuleSet::load: duplicate rule " + std::to_string(antecedent) + "," +
          std::to_string(consequent) + " on line " +
          std::to_string(line_number) + " (first on line " +
          std::to_string(seen->second) + ")");
    }
    entries.emplace_back(antecedent, Consequent{consequent, support});
  }
  return from_entries(entries);
}

}  // namespace aar::core
