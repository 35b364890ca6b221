#include "carbon/common/cli.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

namespace carbon::common {

CliArgs::CliArgs(int argc, char** argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      std::string body = arg.substr(2);
      const auto eq = body.find('=');
      if (eq != std::string::npos) {
        flags_[body.substr(0, eq)] = body.substr(eq + 1);
      } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        flags_[body] = argv[++i];
      } else {
        flags_[body] = "true";
      }
    } else {
      positional_.push_back(std::move(arg));
    }
  }
}

bool CliArgs::has(const std::string& name) const {
  return flags_.count(name) > 0;
}

std::optional<std::string> CliArgs::unknown_flag(
    std::initializer_list<std::string_view> known) const {
  for (const auto& [name, value] : flags_) {
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      return name;
    }
  }
  return std::nullopt;
}

std::string CliArgs::get(const std::string& name,
                         const std::string& fallback) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? fallback : it->second;
}

namespace {

[[noreturn]] void bad_value(const std::string& name, const std::string& value,
                            const char* expected) {
  throw std::invalid_argument("--" + name + ": expected " + expected +
                              ", got '" + value + "'");
}

}  // namespace

long long CliArgs::get_int(const std::string& name, long long fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  const std::string& value = it->second;
  std::size_t consumed = 0;
  long long parsed = 0;
  try {
    parsed = std::stoll(value, &consumed);
  } catch (const std::exception&) {
    bad_value(name, value, "an integer");
  }
  // Require the whole token to parse: "--threads 4x" is an error, not 4.
  if (consumed != value.size()) bad_value(name, value, "an integer");
  return parsed;
}

long long CliArgs::get_positive_int(const std::string& name,
                                    long long fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;  // caller-chosen default is trusted
  const long long parsed = get_int(name, fallback);
  if (parsed <= 0) bad_value(name, it->second, "a positive integer");
  return parsed;
}

double CliArgs::get_double(const std::string& name, double fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  const std::string& value = it->second;
  std::size_t consumed = 0;
  double parsed = 0.0;
  try {
    parsed = std::stod(value, &consumed);
  } catch (const std::exception&) {
    bad_value(name, value, "a number");
  }
  if (consumed != value.size()) bad_value(name, value, "a number");
  return parsed;
}

bool CliArgs::get_bool(const std::string& name, bool fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

}  // namespace carbon::common
