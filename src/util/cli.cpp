#include "util/cli.hpp"

#include <algorithm>
#include <cstdlib>
#include <iostream>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace appscope::util {

CliArgs::CliArgs(int argc, char** argv,
                 std::initializer_list<std::string_view> accepted)
    : accepted_(accepted.begin(), accepted.end()) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string_view token = argv[i];
    if (starts_with(token, "--") && token.size() > 2) {
      const std::size_t eq = token.find('=');
      Option opt;
      if (eq == std::string_view::npos) {
        opt.name = std::string(token.substr(2));
      } else {
        opt.name = std::string(token.substr(2, eq - 2));
        opt.value = std::string(token.substr(eq + 1));
      }
      options_.push_back(std::move(opt));
    } else {
      positionals_.emplace_back(token);
    }
  }

  for (const auto& opt : options_) {
    if (std::ranges::find(accepted_, opt.name) != accepted_.end()) continue;
    std::cerr << program_ << ": unknown option --" << opt.name
              << "\naccepted options:";
    for (const auto& name : accepted_) std::cerr << " --" << name;
    std::cerr << "\n";
    std::exit(2);
  }
}

void CliArgs::require_accepted(std::string_view name) const {
  if (std::ranges::find(accepted_, name) == accepted_.end()) {
    throw InvariantError("CliArgs: option --" + std::string(name) +
                         " is read but not declared");
  }
}

bool CliArgs::has(std::string_view name) const {
  require_accepted(name);
  for (const auto& opt : options_) {
    if (opt.name == name) return true;
  }
  return false;
}

std::optional<std::string> CliArgs::value(std::string_view name) const {
  require_accepted(name);
  for (const auto& opt : options_) {
    if (opt.name == name && opt.value) return opt.value;
  }
  return std::nullopt;
}

std::string CliArgs::get_string(std::string_view name,
                                std::string default_value) const {
  const auto v = value(name);
  return v ? *v : std::move(default_value);
}

std::int64_t CliArgs::get_int(std::string_view name,
                              std::int64_t default_value) const {
  const auto v = value(name);
  if (!v) return default_value;
  return parse_int(*v);
}

double CliArgs::get_double(std::string_view name, double default_value) const {
  const auto v = value(name);
  if (!v) return default_value;
  return parse_double(*v);
}

}  // namespace appscope::util
