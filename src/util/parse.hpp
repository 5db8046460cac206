#pragma once
/// \file parse.hpp
/// Strict whole-string number parsing for CLI arguments. Unlike std::atoi /
/// std::stod, these reject trailing garbage ("8x"), empty strings, overflow
/// and non-numeric input instead of silently returning 0 or a prefix — a
/// mistyped grid dimension should print usage, not train on a 0-sized axis.

#include <charconv>
#include <cmath>
#include <cstdint>
#include <string_view>

namespace plexus::util {

/// Parse the *entire* string as a base-10 signed 64-bit integer. Returns
/// false (leaving `out` untouched) on empty input, leading/trailing
/// non-digits, or overflow. A single leading '-' is accepted.
inline bool parse_int64(std::string_view s, std::int64_t& out) {
  std::int64_t v = 0;
  const char* first = s.data();
  const char* last = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(first, last, v, 10);
  if (ec != std::errc() || ptr != last || s.empty()) return false;
  out = v;
  return true;
}

/// Same, narrowed to int. Returns false when the value does not fit.
inline bool parse_int(std::string_view s, int& out) {
  std::int64_t v = 0;
  if (!parse_int64(s, v)) return false;
  if (v < static_cast<std::int64_t>(INT32_MIN) || v > static_cast<std::int64_t>(INT32_MAX)) {
    return false;
  }
  out = static_cast<int>(v);
  return true;
}

/// Parse the *entire* string as a finite decimal double ("0.99", "1e-3").
/// Returns false (leaving `out` untouched) on empty input, leading/trailing
/// garbage, out-of-range input, or a non-finite value ("inf", "nan").
inline bool parse_double(std::string_view s, double& out) {
  double v = 0.0;
  const char* first = s.data();
  const char* last = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(first, last, v);
  if (ec != std::errc() || ptr != last || s.empty() || !std::isfinite(v)) return false;
  out = v;
  return true;
}

}  // namespace plexus::util
