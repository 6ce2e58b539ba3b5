#include "detect/static_check.hpp"

#include <cmath>

namespace offramps::detect {

StaticCheckReport static_check(const analyze::Oracle& oracle,
                               const core::Capture& capture,
                               const StaticCheckOptions& options) {
  StaticCheckReport report;
  report.oracle_armed = oracle.counters_armed;
  report.print_completed = capture.print_completed;
  if (!report.oracle_armed || !report.print_completed) {
    report.trojan_suspected = true;
    return report;
  }
  for (std::size_t axis = 0; axis < 4; ++axis) {
    const std::int64_t expected = oracle.expected_counts[axis];
    const std::int64_t observed = capture.final_counts[axis];
    const std::int64_t diff = std::llabs(expected - observed);
    const auto allowed = static_cast<std::int64_t>(std::ceil(std::max(
        static_cast<double>(options.slack_steps),
        options.margin_pct / 100.0 * std::abs(static_cast<double>(expected)))));
    const double percent =
        static_cast<double>(diff) /
        std::max(std::abs(static_cast<double>(expected)), 1.0) * 100.0;
    report.largest_percent = std::max(report.largest_percent, percent);
    if (diff > allowed) {
      report.mismatches.push_back({axis, expected, observed, percent});
    }
  }
  report.trojan_suspected = !report.mismatches.empty();
  return report;
}

}  // namespace offramps::detect
