// Strict, locale-independent number parsing for the CLI surface.
//
// The tools historically leaned on atof/atoi/strtod, which silently
// accept trailing garbage ("reduce:0.5junk" -> 0.5) and read the
// LC_NUMERIC decimal separator (under a comma-decimal locale
// "reduce:0.5" parses as 0).  These helpers are the one shared fix:
// std::from_chars (locale-blind by specification, like svc::json's
// number scanner) over the ENTIRE input - no leading whitespace, no
// trailing bytes, no locale.  Parse failure is a nullopt, never a
// sentinel value, so callers must decide what malformed input means
// (the tool-suite contract: usage error, exit 2).
#pragma once

#include <charconv>
#include <concepts>
#include <optional>
#include <string_view>

namespace offramps::core {

/// Parses `text` as a finite double.  The whole string must be a number
/// ("0.5", "-1e-3"); empty input, surrounding whitespace, trailing
/// garbage, inf and nan all yield nullopt.
std::optional<double> parse_double(std::string_view text);

/// Parses `text` as a base-10 T, whole-string, no locale.  A value T
/// cannot hold (a sign on an unsigned T, overflow) is nullopt, never a
/// wrapped value.
template <std::integral T>
std::optional<T> parse_int(std::string_view text) {
  if (text.empty()) return std::nullopt;
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value, 10);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

/// Parses `text` as a base-10 signed integer, whole-string, no locale.
std::optional<long long> parse_long(std::string_view text);

}  // namespace offramps::core
