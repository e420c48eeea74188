#ifndef QUASII_BENCH_CLI_H_
#define QUASII_BENCH_CLI_H_

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

namespace quasii::bench::cli {

/// Strict flag parsing shared by the bench driver, the server and the client.
/// Every parser consumes the ENTIRE value or fails — `--n=123abc`,
/// `--queries=`, and `--selectivity=nan` are diagnostics and a nonzero
/// exit, never a silent fallback to atoi()'s prefix (or zero).

inline bool ParseU64(const std::string& s, std::uint64_t* out) {
  if (s.empty() || s[0] < '0' || s[0] > '9') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  *out = static_cast<std::uint64_t>(v);
  return true;
}

inline bool ParseI64(const std::string& s, std::int64_t* out) {
  const std::size_t sign = s.size() > 0 && (s[0] == '-' || s[0] == '+');
  if (s.size() == sign || s[sign] < '0' || s[sign] > '9') return false;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  *out = static_cast<std::int64_t>(v);
  return true;
}

/// Finite decimal doubles only: rejects partial parses, leading
/// whitespace, "nan", "inf".
inline bool ParseDouble(const std::string& s, double* out) {
  const std::size_t sign = s.size() > 0 && (s[0] == '-' || s[0] == '+');
  if (s.size() == sign ||
      (s[sign] != '.' && (s[sign] < '0' || s[sign] > '9'))) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  if (v != v || v == 1.0 / 0.0 || v == -1.0 / 0.0) return false;
  *out = v;
  return true;
}

/// Splits a comma list into `*parts`. False when any item is empty (`a,,b`,
/// a trailing comma, or an empty list): a stray comma is a diagnostic, not
/// a shorter list.
inline bool SplitCommas(const std::string& s, std::vector<std::string>* parts) {
  parts->clear();
  std::size_t start = 0;
  while (true) {
    const std::size_t comma = std::min(s.find(',', start), s.size());
    if (comma == start) return false;
    parts->push_back(s.substr(start, comma - start));
    if (comma == s.size()) return true;
    start = comma + 1;
  }
}

/// Splits one `--key=value` argument. `--recover`-style boolean flags have
/// no '='; they come back with `has_value == false` and an empty value.
struct FlagArg {
  bool is_flag = false;  // starts with "--"
  bool has_value = false;
  std::string key;
  std::string value;
};

inline FlagArg SplitFlag(const std::string& arg) {
  FlagArg out;
  if (arg.rfind("--", 0) != 0) return out;
  out.is_flag = true;
  const std::size_t eq = arg.find('=');
  if (eq == std::string::npos) {
    out.key = arg.substr(2);
  } else {
    out.has_value = true;
    out.key = arg.substr(2, eq - 2);
    out.value = arg.substr(eq + 1);
  }
  return out;
}

}  // namespace quasii::bench::cli

#endif  // QUASII_BENCH_CLI_H_
