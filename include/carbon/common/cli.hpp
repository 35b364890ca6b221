// Very small command-line flag parser shared by the examples and benchmark
// harnesses. Supports `--name value`, `--name=value` and boolean `--flag`.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace carbon::common {

class CliArgs {
 public:
  CliArgs(int argc, char** argv);

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback) const;
  /// Strict numeric accessors: the whole value must parse (trailing garbage
  /// such as "--threads 4x" is rejected, not truncated to 4). Throw
  /// std::invalid_argument naming the flag and the offending value.
  [[nodiscard]] long long get_int(const std::string& name,
                                  long long fallback) const;
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;
  /// Like get_int, but additionally requires the value to be strictly
  /// positive — for counts (threads, budgets, cadences) stored in unsigned
  /// or size-typed config fields, where a negative value would wrap.
  [[nodiscard]] long long get_positive_int(const std::string& name,
                                           long long fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name,
                              bool fallback = false) const;

  /// The first flag (in name order) that is not in `known`, if any — lets a
  /// command reject a typo such as `--thread` instead of ignoring it.
  [[nodiscard]] std::optional<std::string> unknown_flag(
      std::initializer_list<std::string_view> known) const;

  /// Positional (non-flag) arguments in order of appearance.
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  [[nodiscard]] const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace carbon::common
