#pragma once
// The one command-line flag parser of the tools and benches.
//
// Arguments are `--name value` pairs, or a bare `--name` for a boolean
// flag.  Anything the caller did not declare — an unknown flag, a flag
// missing its value, a stray positional argument, a value that does not
// parse or is out of range — throws CliUsageError, which every tool reports
// with its usage text and exit status 2, so a typo like --block_size
// cannot run with the default unnoticed.

#include <charconv>
#include <limits>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace aar::util {

/// A malformed command line: print it with the usage text, exit 2.
struct CliUsageError : std::invalid_argument {
  using std::invalid_argument::invalid_argument;
};

/// Flags each command accepts, by command name.
using CliCommands =
    std::map<std::string_view, std::vector<std::string_view>, std::less<>>;

class Cli {
 public:
  /// Parse `args` against `allowed`; names in `booleans` take no value.
  /// Every value of a repeated flag is kept, in order.  `command` only
  /// labels the errors.
  Cli(std::span<char* const> args, std::span<const std::string_view> allowed,
      std::span<const std::string_view> booleans = {},
      std::string command = {});

  /// `argv[1]` names the command; its flags are checked against its entry
  /// in `commands` (an unknown command is a usage error too).
  [[nodiscard]] static Cli command_line(
      int argc, char** argv, const CliCommands& commands,
      std::span<const std::string_view> booleans = {});

  [[nodiscard]] const std::string& command() const noexcept { return command_; }
  [[nodiscard]] bool has(std::string_view key) const {
    return flags_.find(key) != flags_.end();
  }
  /// The last value of `--key`, or `fallback` when it is absent.
  [[nodiscard]] std::string get(std::string_view key,
                                const std::string& fallback) const;
  /// Every value of `--key`, in command-line order.
  [[nodiscard]] const std::vector<std::string>& all(std::string_view key) const;

  /// The integer value of `--key`, or `fallback` when the flag is absent.
  /// The whole value must be a base-10 integer in [lo, hi] (by default the
  /// range of T): a wider value is refused, never cast down.
  template <typename T>
  [[nodiscard]] T num(std::string_view key, T fallback,
                      T lo = std::numeric_limits<T>::min(),
                      T hi = std::numeric_limits<T>::max()) const {
    static_assert(std::is_integral_v<T>);
    if (!has(key)) return fallback;
    const std::string raw = get(key, "");
    T value{};
    const char* end = raw.data() + raw.size();
    const auto [stop, error] = std::from_chars(raw.data(), end, value);
    if (raw.empty() || error != std::errc{} || stop != end || value < lo ||
        value > hi) {
      throw CliUsageError("--" + std::string(key) + " must be an integer in " +
                          std::to_string(lo) + ".." + std::to_string(hi) +
                          ", got '" + raw + "'");
    }
    return value;
  }

  /// A probability or share: the whole value must be a number in [0, 1].
  [[nodiscard]] double fraction(std::string_view key, double fallback) const;

 private:
  std::string command_;
  std::map<std::string, std::vector<std::string>, std::less<>> flags_;
};

}  // namespace aar::util
