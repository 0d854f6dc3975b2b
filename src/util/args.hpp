// Minimal command-line flag parsing for the example binaries.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

namespace gana {

/// A flag value that does not parse: a usage error. Every binary turns
/// it into its usage exit (status 1).
class ArgError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Parses `--key value`, `--key=value`, and bare `--flag` arguments.
/// Positional (non-flag) arguments are collected in order.
///
/// A bare `--key` normally consumes the next non-`--` token as its
/// value. Flags named in `boolean_flags` never do: `--session a.sp`
/// keeps `a.sp` positional when "session" is declared boolean, so
/// value-less switches can precede positional arguments.
class Args {
 public:
  Args(int argc, const char* const* argv,
       std::set<std::string> boolean_flags = {});

  [[nodiscard]] bool has(const std::string& key) const;
  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback = "") const;
  /// The flag's value as an int, or `fallback` when the flag is
  /// absent. The whole value must be a decimal integer in int's range:
  /// anything else ("abc", "1x", "1e6", "99999999999", "") throws
  /// ArgError.
  [[nodiscard]] int get_int(const std::string& key, int fallback) const;
  /// A count flag: the value parsed as by get_int, or `fallback` when
  /// the flag is absent. A value outside [min, max] -- a negative job
  /// count, 0 shards -- throws ArgError instead of being clamped.
  [[nodiscard]] std::size_t get_count(
      const std::string& key, std::size_t fallback, int min,
      int max = std::numeric_limits<int>::max()) const;
  /// The flag's value as a uint64 (seeds), or `fallback` when absent.
  /// The whole value must be a decimal integer in [0, 2^64-1]: anything
  /// else ("abc", "-1", "1e6", "18446744073709551616", "") throws
  /// ArgError.
  [[nodiscard]] std::uint64_t get_u64(const std::string& key,
                                      std::uint64_t fallback) const;
  /// The flag's value as a finite double ("0.5", "1e-3", "-2"), or
  /// `fallback` when absent; a malformed value throws ArgError.
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const;
  /// A `--*-seconds` flag: get_double, and a negative value throws
  /// ArgError.
  [[nodiscard]] double get_seconds(const std::string& key,
                                   double fallback) const;
  /// A fraction or probability flag: get_double, and a value outside
  /// [0, 1] throws ArgError.
  [[nodiscard]] double get_fraction(const std::string& key,
                                    double fallback) const;
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  /// Throws ArgError naming the first flag on the command line that is
  /// neither in `known` nor one of the constructor's `boolean_flags`: a
  /// misspelled or retired flag is a usage error, never silently
  /// ignored.
  void reject_unknown(const std::set<std::string>& known) const;

 private:
  std::map<std::string, std::string> flags_;
  std::vector<std::string> flag_order_;  ///< flag names, command-line order
  std::set<std::string> boolean_flags_;
  std::vector<std::string> positional_;
};

}  // namespace gana
