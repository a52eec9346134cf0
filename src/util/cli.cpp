#include "util/cli.hpp"

#include <algorithm>
#include <utility>

namespace aar::util {

namespace {

bool contains(std::span<const std::string_view> names, std::string_view name) {
  return std::find(names.begin(), names.end(), name) != names.end();
}

}  // namespace

Cli::Cli(std::span<char* const> args, std::span<const std::string_view> allowed,
         std::span<const std::string_view> booleans, std::string command)
    : command_(std::move(command)) {
  for (std::size_t i = 0; i < args.size();) {
    const std::string arg = args[i];
    if (arg.rfind("--", 0) != 0) {
      throw CliUsageError("unexpected argument '" + arg + "'");
    }
    const std::string name = arg.substr(2);
    if (!contains(allowed, name)) {
      throw CliUsageError("unknown flag '" + arg + "'" +
                          (command_.empty() ? "" : " for '" + command_ + "'"));
    }
    if (contains(booleans, name)) {
      flags_[name].emplace_back();
      i += 1;
      continue;
    }
    if (i + 1 >= args.size()) {
      throw CliUsageError("flag '" + arg + "' needs a value");
    }
    flags_[name].emplace_back(args[i + 1]);
    i += 2;
  }
}

Cli Cli::command_line(int argc, char** argv, const CliCommands& commands,
                      std::span<const std::string_view> booleans) {
  const std::string command = argc >= 2 ? argv[1] : "";
  const auto it = commands.find(command);
  if (it == commands.end()) {
    throw CliUsageError(command.empty() ? "no command given"
                                        : "unknown command '" + command + "'");
  }
  return Cli({argv + 2, static_cast<std::size_t>(argc - 2)}, it->second,
             booleans, command);
}

std::string Cli::get(std::string_view key, const std::string& fallback) const {
  const auto it = flags_.find(key);
  return it == flags_.end() ? fallback : it->second.back();
}

const std::vector<std::string>& Cli::all(std::string_view key) const {
  static const std::vector<std::string> empty;
  const auto it = flags_.find(key);
  return it == flags_.end() ? empty : it->second;
}

double Cli::fraction(std::string_view key, double fallback) const {
  if (!has(key)) return fallback;
  const std::string raw = get(key, "");
  double value = 0.0;
  const char* end = raw.data() + raw.size();
  const auto [stop, error] = std::from_chars(raw.data(), end, value);
  if (error != std::errc{} || stop != end || !(value >= 0.0 && value <= 1.0)) {
    throw CliUsageError("--" + std::string(key) +
                        " must be a number in [0, 1], got '" + raw + "'");
  }
  return value;
}

}  // namespace aar::util
