// appscope/util/cli.hpp
//
// Minimal command-line option parser shared by the example, daemon, query
// and region binaries: supports "--flag", "--key=value" and positional
// arguments, with typed accessors. Each program declares the option names it
// reads once, at construction; any other option ("--help" included) is a
// usage error that exits 2 before the program does any work.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace appscope::util {

class CliArgs {
 public:
  /// Parses argv against `accepted`, the option names (without "--") the
  /// program reads. On an option outside that list, prints the accepted
  /// names to stderr and exits with status 2.
  CliArgs(int argc, char** argv, std::initializer_list<std::string_view> accepted);

  const std::string& program() const noexcept { return program_; }

  /// True if "--name" or "--name=..." was given. Every accessor throws
  /// InvariantError for a name missing from the accepted list.
  bool has(std::string_view name) const;

  /// Value of "--name=value", if present.
  std::optional<std::string> value(std::string_view name) const;

  /// Typed accessors with defaults; throw InputError on malformed values.
  std::string get_string(std::string_view name, std::string default_value) const;
  std::int64_t get_int(std::string_view name, std::int64_t default_value) const;
  double get_double(std::string_view name, double default_value) const;

  const std::vector<std::string>& positionals() const noexcept {
    return positionals_;
  }

 private:
  struct Option {
    std::string name;
    std::optional<std::string> value;
  };

  void require_accepted(std::string_view name) const;

  std::string program_;
  std::vector<std::string> accepted_;
  std::vector<Option> options_;
  std::vector<std::string> positionals_;
};

}  // namespace appscope::util
