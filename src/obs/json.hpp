// The one JSON string writer under every report the suite emits: the
// fleet report, the analyzer, the fault-campaign report, the metrics
// registry, the trace and the bench artifacts.  Each document's layout
// stays at its call site; the escaping rule and the two number renderings
// live here.
#pragma once

#include <string>
#include <string_view>

namespace offramps::obs {

/// Appends `s` as a quoted JSON string.  `"` and `\` are backslash
/// escaped, \b \f \n \r \t take their short forms, every other byte below
/// 0x20 becomes \u00XX, and all other bytes (0x7f, UTF-8) pass through.
void append_json_string(std::string& out, std::string_view s);

/// printf("%.6f", v), for any finite double.
[[nodiscard]] std::string format_fixed(double v);

/// printf("%.6g", v).
[[nodiscard]] std::string format_general(double v);

}  // namespace offramps::obs
