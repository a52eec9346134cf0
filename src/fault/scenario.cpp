#include "fault/scenario.hpp"

#include <charconv>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace aar::fault {

namespace {

constexpr std::string_view kMagic = "aar.faults.v1";

[[noreturn]] void fail(std::size_t line_no, const std::string& line,
                       const std::string& why) {
  throw std::runtime_error("scenario line " + std::to_string(line_no) + ": " +
                           why + " — '" + line + "'");
}

/// Whitespace-split; '#' starts a comment that runs to end of line.
std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  std::string token;
  while (in >> token) {
    if (token.front() == '#') break;
    tokens.push_back(token);
  }
  return tokens;
}

/// Locale-independent strict parses (the whole token must be consumed).
template <typename T>
T parse_int(const std::string& token, std::size_t line_no,
            const std::string& line) {
  T value{};
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value);
  if (ec != std::errc{} || ptr != token.data() + token.size()) {
    fail(line_no, line, "expected an integer, got '" + token + "'");
  }
  return value;
}

double parse_prob(const std::string& token, std::size_t line_no,
                  const std::string& line) {
  double value = 0.0;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value);
  if (ec != std::errc{} || ptr != token.data() + token.size()) {
    fail(line_no, line, "expected a number, got '" + token + "'");
  }
  if (value < 0.0 || value > 1.0) {
    fail(line_no, line, "probability out of [0, 1]");
  }
  return value;
}

void expect_arity(const std::vector<std::string>& tokens, std::size_t n,
                  std::size_t line_no, const std::string& line) {
  if (tokens.size() != n) {
    fail(line_no, line,
         "expected " + std::to_string(n - 1) + " argument(s) after '" +
             tokens[0] + "'");
  }
}

void parse_event(const std::vector<std::string>& tokens, std::size_t line_no,
                 const std::string& line, FaultSchedule& schedule) {
  // at <stamp> crash N | heal N | state N <peer-state> | partition PIVOT |
  //            heal-partition
  if (tokens.size() < 3) fail(line_no, line, "truncated 'at' event");
  FaultEvent event;
  event.at = parse_int<std::uint64_t>(tokens[1], line_no, line);
  const std::string& action = tokens[2];
  if (action == "crash" || action == "heal") {
    expect_arity(tokens, 4, line_no, line);
    event.kind = action == "crash" ? FaultEvent::Kind::crash
                                   : FaultEvent::Kind::heal;
    event.node = parse_int<NodeId>(tokens[3], line_no, line);
  } else if (action == "state") {
    expect_arity(tokens, 5, line_no, line);
    event.kind = FaultEvent::Kind::set_state;
    event.node = parse_int<NodeId>(tokens[3], line_no, line);
    event.state = peer_state_from(tokens[4]);
  } else if (action == "partition") {
    expect_arity(tokens, 4, line_no, line);
    event.kind = FaultEvent::Kind::partition;
    event.pivot = parse_int<NodeId>(tokens[3], line_no, line);
  } else if (action == "heal-partition") {
    expect_arity(tokens, 3, line_no, line);
    event.kind = FaultEvent::Kind::heal_partition;
  } else {
    fail(line_no, line, "unknown event '" + action + "'");
  }
  schedule.add(event);
}

}  // namespace

Scenario parse_scenario(std::istream& in) {
  Scenario scenario;
  std::string line;
  std::size_t line_no = 0;
  bool magic_seen = false;
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    const std::vector<std::string> tokens = tokenize(line);
    if (tokens.empty()) continue;
    if (!magic_seen) {
      if (tokens.size() != 1 || tokens[0] != kMagic) {
        fail(line_no, line, "first line must be the magic 'aar.faults.v1'");
      }
      magic_seen = true;
      continue;
    }
    const std::string& key = tokens[0];
    if (key == "nodes" || key == "attach" || key == "warmup" ||
        key == "queries" || key == "epochs" || key == "churn") {
      expect_arity(tokens, 2, line_no, line);
      const auto value = parse_int<std::size_t>(tokens[1], line_no, line);
      if (key == "nodes") scenario.nodes = value;
      else if (key == "attach") scenario.attach = value;
      else if (key == "warmup") scenario.warmup = value;
      else if (key == "queries") scenario.queries = value;
      else if (key == "epochs") scenario.epochs = value;
      else scenario.churn = value;
    } else if (key == "policy") {
      expect_arity(tokens, 2, line_no, line);
      if (tokens[1] != "association" && tokens[1] != "flooding" &&
          tokens[1] != "shortcuts") {
        fail(line_no, line,
             "policy must be 'association', 'flooding', or 'shortcuts'");
      }
      scenario.policy = tokens[1];
    } else if (key == "ttl" || key == "timeout" || key == "retries" ||
               key == "backoff" || key == "jitter" || key == "widen" ||
               key == "delay" || key == "slow-extra") {
      expect_arity(tokens, 2, line_no, line);
      const auto value = parse_int<std::uint32_t>(tokens[1], line_no, line);
      if (key == "ttl") scenario.ttl = value;
      else if (key == "timeout") scenario.timeout = value;
      else if (key == "retries") scenario.retries = value;
      else if (key == "backoff") scenario.backoff = value;
      else if (key == "jitter") scenario.jitter = value;
      else if (key == "widen") scenario.widen = value;
      else if (key == "delay") scenario.plan.max_delay = value;
      else scenario.plan.slow_extra = value;
    } else if (key == "drop" || key == "duplicate") {
      expect_arity(tokens, 2, line_no, line);
      const double p = parse_prob(tokens[1], line_no, line);
      if (key == "drop") scenario.plan.drop = p;
      else scenario.plan.duplicate = p;
    } else if (key == "peer") {
      expect_arity(tokens, 3, line_no, line);
      scenario.plan.peers.push_back(
          {parse_int<NodeId>(tokens[1], line_no, line),
           peer_state_from(tokens[2])});
    } else if (key == "link") {
      expect_arity(tokens, 4, line_no, line);
      scenario.plan.links.push_back(
          {parse_int<NodeId>(tokens[1], line_no, line),
           parse_int<NodeId>(tokens[2], line_no, line),
           parse_prob(tokens[3], line_no, line)});
    } else if (key == "at") {
      parse_event(tokens, line_no, line, scenario.schedule);
    } else {
      fail(line_no, line, "unknown key '" + key + "'");
    }
  }
  if (!magic_seen) {
    throw std::runtime_error("scenario: empty input (missing magic line)");
  }
  // The Barabási–Albert overlay seeds a clique of attach + 1 peers.
  if (scenario.attach == 0 || scenario.attach >= scenario.nodes) {
    throw std::runtime_error("scenario: need 1 <= attach < nodes, got attach " +
                             std::to_string(scenario.attach) + " with nodes " +
                             std::to_string(scenario.nodes));
  }
  return scenario;
}

Scenario load_scenario(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw std::runtime_error("scenario: cannot open " + path);
  return parse_scenario(file);
}

namespace {

/// Shortest-round-trip double (same technique as the obs JSON writer), so a
/// saved scenario re-parses to identical probabilities.
std::string number(double v) {
  char buffer[32];
  const auto [ptr, ec] = std::to_chars(buffer, buffer + sizeof(buffer), v);
  (void)ec;
  return {buffer, ptr};
}

}  // namespace

void save_scenario(std::ostream& out, const Scenario& scenario) {
  out << kMagic << "\n";
  out << "nodes " << scenario.nodes << "\n";
  out << "attach " << scenario.attach << "\n";
  out << "warmup " << scenario.warmup << "\n";
  out << "queries " << scenario.queries << "\n";
  out << "epochs " << scenario.epochs << "\n";
  out << "churn " << scenario.churn << "\n";
  out << "policy " << scenario.policy << "\n";
  out << "ttl " << scenario.ttl << "\n";
  out << "timeout " << scenario.timeout << "\n";
  out << "retries " << scenario.retries << "\n";
  out << "backoff " << scenario.backoff << "\n";
  out << "jitter " << scenario.jitter << "\n";
  out << "widen " << scenario.widen << "\n";
  out << "drop " << number(scenario.plan.drop) << "\n";
  out << "duplicate " << number(scenario.plan.duplicate) << "\n";
  out << "delay " << scenario.plan.max_delay << "\n";
  out << "slow-extra " << scenario.plan.slow_extra << "\n";
  for (const FaultPlan::PeerOverride& peer : scenario.plan.peers) {
    out << "peer " << peer.node << " " << to_string(peer.state) << "\n";
  }
  for (const FaultPlan::LinkDrop& link : scenario.plan.links) {
    out << "link " << link.a << " " << link.b << " " << number(link.drop)
        << "\n";
  }
  for (const FaultEvent& event : scenario.schedule.events()) {
    out << "at " << event.at << " ";
    switch (event.kind) {
      case FaultEvent::Kind::crash: out << "crash " << event.node; break;
      case FaultEvent::Kind::heal: out << "heal " << event.node; break;
      case FaultEvent::Kind::set_state:
        out << "state " << event.node << " " << to_string(event.state);
        break;
      case FaultEvent::Kind::partition: out << "partition " << event.pivot; break;
      case FaultEvent::Kind::heal_partition: out << "heal-partition"; break;
    }
    out << "\n";
  }
}

}  // namespace aar::fault
