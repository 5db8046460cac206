#pragma once
/// \file arg_parser.hpp
/// Minimal `--key=value` command-line parser for the example/bench binaries.
///
/// Flags are registered up front with a value hint and help line; `parse`
/// then accepts `--key=value` (and bare `--key`, which stores "1" so boolean
/// switches work) and handles `--help`. Positional arguments are an error.
/// Unknown flags fail with a did-you-mean suggestion (edit distance <= 2
/// against the registered names). Values stay strings; callers convert with
/// the checked helpers here (built on util/parse.hpp) so a mistyped number
/// prints usage instead of training on a 0-sized axis.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace plexus::util {

class ArgParser {
 public:
  /// `prog` is argv[0] for the usage line; `summary` one line of what the
  /// binary does.
  ArgParser(std::string prog, std::string summary);

  /// Register `--name=<hint>`. `def` is the value reported when the flag is
  /// absent; pass "" for flags whose absence the caller tests with is_set().
  void add_flag(std::string name, std::string hint, std::string help, std::string def = "");

  enum class Status {
    Ok,     ///< parsed; proceed
    Help,   ///< --help seen; caller prints usage() and exits 0
    Error,  ///< bad input; caller prints error() + usage() and exits nonzero
  };

  Status parse(int argc, char** argv);

  bool is_set(std::string_view name) const;
  /// Parsed value, or the registered default.
  const std::string& value(std::string_view name) const;
  /// Strict integer conversion of value(name); false on non-numeric input.
  bool value_int(std::string_view name, int& out) const;
  bool value_int64(std::string_view name, std::int64_t& out) const;
  /// Strict finite-double conversion of value(name) (util::parse_double).
  bool value_double(std::string_view name, double& out) const;

  std::string usage() const;
  const std::string& error() const { return error_; }

 private:
  struct Flag {
    std::string name;
    std::string hint;
    std::string help;
    std::string def;
    std::string parsed;
    bool set = false;
  };
  Flag* find(std::string_view name);
  const Flag* find(std::string_view name) const;
  /// Closest registered flag name within edit distance 2, or "".
  std::string suggest(std::string_view name) const;

  std::string prog_;
  std::string summary_;
  std::vector<Flag> flags_;
  std::string error_;
};

}  // namespace plexus::util
