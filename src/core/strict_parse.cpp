#include "core/strict_parse.hpp"

#include <charconv>
#include <cmath>

namespace offramps::core {

std::optional<double> parse_double(std::string_view text) {
  if (text.empty()) return std::nullopt;
  double value = 0.0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    return std::nullopt;
  }
  // from_chars accepts "inf"/"nan" spellings; no CLI quantity wants
  // them, and NaN would sail through range checks (every comparison is
  // false).
  if (!std::isfinite(value)) return std::nullopt;
  return value;
}

std::optional<long long> parse_long(std::string_view text) {
  return parse_int<long long>(text);
}

}  // namespace offramps::core
