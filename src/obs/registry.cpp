#include "obs/registry.hpp"

#include <atomic>
#include <charconv>
#include <cmath>
#include <ostream>
#include <stdexcept>

#include "util/table.hpp"

namespace aar::obs {

std::size_t this_thread_shard() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t shard =
      next.fetch_add(1, std::memory_order_relaxed) % kCounterShards;
  return shard;
}

Registry& Registry::global() {
  static Registry instance;
  return instance;
}

namespace {

template <typename Map, typename Make>
auto& find_or_create(std::mutex& mutex, Map& map, std::string_view name,
                     const Make& make) {
  const std::lock_guard<std::mutex> lock(mutex);
  const auto it = map.find(name);
  if (it != map.end()) return *it->second;
  return *map.emplace(std::string(name), make()).first->second;
}

}  // namespace

Counter& Registry::counter(std::string_view name) {
  return find_or_create(mutex_, counters_, name,
                        [] { return std::make_unique<Counter>(); });
}

Gauge& Registry::gauge(std::string_view name) {
  return find_or_create(mutex_, gauges_, name,
                        [] { return std::make_unique<Gauge>(); });
}

Histogram& Registry::histogram(std::string_view name, double lo, double hi,
                               std::size_t bins) {
  if (!(hi > lo) || bins == 0) {
    throw std::invalid_argument("obs: histogram '" + std::string(name) +
                                "' needs hi > lo and bins >= 1");
  }
  return find_or_create(mutex_, histograms_, name, [&] {
    return std::make_unique<Histogram>(lo, hi, bins);
  });
}

Timer& Registry::timer(std::string_view name) {
  return find_or_create(mutex_, timers_, name,
                        [] { return std::make_unique<Timer>(); });
}

void Registry::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
  for (auto& [name, t] : timers_) t->reset();
}

namespace {

// Locale-independent JSON number: shortest round-trip via to_chars.
// Non-finite doubles have no JSON encoding; emit null (schema-checked).
void json_number(std::ostream& os, double v) {
  if (!std::isfinite(v)) {
    os << "null";
    return;
  }
  char buffer[32];
  const auto [ptr, ec] = std::to_chars(buffer, buffer + sizeof(buffer), v);
  os.write(buffer, ptr - buffer);
  (void)ec;  // 32 bytes always suffice for shortest double form
}

void json_string(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      os << "\\u00" << "0123456789abcdef"[(c >> 4) & 0xf]
         << "0123456789abcdef"[c & 0xf];
    } else {
      os << c;
    }
  }
  os << '"';
}

/// Emit `"key": <body>` pairs of a JSON object with correct commas.
class ObjectWriter {
 public:
  explicit ObjectWriter(std::ostream& os) : os_(os) { os_ << '{'; }
  template <typename Body>
  void field(std::string_view key, const Body& body) {
    if (!first_) os_ << ',';
    first_ = false;
    json_string(os_, key);
    os_ << ':';
    body();
  }
  void close() { os_ << '}'; }

 private:
  std::ostream& os_;
  bool first_ = true;
};

/// "[lo, hi)" to one decimal.  Built by appending: GCC 12 reports a false
/// -Wrestrict for "literal" + std::string&&.
std::string half_open(double lo, double hi) {
  std::string range = "[";
  range.append(util::Table::num(lo, 1)).append(", ");
  range.append(util::Table::num(hi, 1)).append(")");
  return range;
}

}  // namespace

void Registry::write_json(std::ostream& os, std::span<const NamedSeries> series,
                          bool include_timers) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  ObjectWriter root(os);
  root.field("schema", [&] { os << "\"aar.metrics.v1\""; });

  root.field("counters", [&] {
    ObjectWriter obj(os);
    for (const auto& [name, c] : counters_) {
      obj.field(name, [&] { os << c->value(); });
    }
    obj.close();
  });

  root.field("gauges", [&] {
    ObjectWriter obj(os);
    for (const auto& [name, g] : gauges_) {
      obj.field(name, [&] {
        ObjectWriter fields(os);
        fields.field("value", [&] { json_number(os, g->value()); });
        fields.field("max", [&] { json_number(os, g->max()); });
        fields.close();
      });
    }
    obj.close();
  });

  root.field("timers", [&] {
    ObjectWriter obj(os);
    if (!include_timers) {
      obj.close();
      return;
    }
    for (const auto& [name, t] : timers_) {
      obj.field(name, [&] {
        ObjectWriter fields(os);
        fields.field("count", [&] { os << t->count(); });
        fields.field("total_ns", [&] { os << t->total_ns(); });
        fields.field("min_ns", [&] { os << t->min_ns(); });
        fields.field("max_ns", [&] { os << t->max_ns(); });
        fields.close();
      });
    }
    obj.close();
  });

  root.field("histograms", [&] {
    ObjectWriter obj(os);
    for (const auto& [name, h] : histograms_) {
      obj.field(name, [&] {
        ObjectWriter fields(os);
        fields.field("lo", [&] { json_number(os, h->lo()); });
        fields.field("hi", [&] { json_number(os, h->hi()); });
        fields.field("bins", [&] { os << h->bins(); });
        fields.field("total", [&] { os << h->total(); });
        fields.field("dropped", [&] { os << h->dropped(); });
        fields.field("counts", [&] {
          os << '[';
          for (std::size_t b = 0; b < h->bins(); ++b) {
            if (b != 0) os << ',';
            os << h->count(b);
          }
          os << ']';
        });
        fields.close();
      });
    }
    obj.close();
  });

  root.field("series", [&] {
    ObjectWriter obj(os);
    for (const NamedSeries& s : series) {
      obj.field(s.name, [&] {
        os << '[';
        for (std::size_t i = 0; i < s.values.size(); ++i) {
          if (i != 0) os << ',';
          json_number(os, s.values[i]);
        }
        os << ']';
      });
    }
    obj.close();
  });

  root.close();
  os << '\n';
}

void Registry::print_table(std::ostream& os) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  constexpr double kMs = 1e6;  // ns per ms
  if (!counters_.empty()) {
    util::Table table({"counter", "value"});
    for (const auto& [name, c] : counters_) {
      table.row({name, std::to_string(c->value())});
    }
    table.print(os);
  }
  if (!gauges_.empty()) {
    util::Table table({"gauge", "value", "max"});
    for (const auto& [name, g] : gauges_) {
      table.row({name, util::Table::num(g->value(), 3),
                 util::Table::num(g->max(), 3)});
    }
    table.print(os);
  }
  if (!timers_.empty()) {
    util::Table table({"timer", "count", "total ms", "mean ms", "max ms"});
    for (const auto& [name, t] : timers_) {
      const double count = static_cast<double>(t->count());
      const double total = static_cast<double>(t->total_ns()) / kMs;
      table.row({name, std::to_string(t->count()), util::Table::num(total, 2),
                 util::Table::num(count > 0 ? total / count : 0.0, 3),
                 util::Table::num(static_cast<double>(t->max_ns()) / kMs, 2)});
    }
    table.print(os);
  }
  if (!histograms_.empty()) {
    util::Table table({"histogram", "range", "total", "dropped", "mode bin"});
    for (const auto& [name, h] : histograms_) {
      std::size_t mode = 0;
      for (std::size_t b = 1; b < h->bins(); ++b) {
        if (h->count(b) > h->count(mode)) mode = b;
      }
      const double width =
          (h->hi() - h->lo()) / static_cast<double>(h->bins());
      const std::string mode_range =
          half_open(h->lo() + width * static_cast<double>(mode),
                    h->lo() + width * static_cast<double>(mode + 1));
      table.row({name, half_open(h->lo(), h->hi()),
                 std::to_string(h->total()), std::to_string(h->dropped()),
                 h->total() > 0 ? mode_range : "-"});
    }
    table.print(os);
  }
}

}  // namespace aar::obs
