#include "detect/compare.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

namespace offramps::detect {

const char* column_name(std::size_t column) {
  switch (column) {
    case 0: return "X";
    case 1: return "Y";
    case 2: return "Z";
    case 3: return "E";
    default: return "?";
  }
}

bool compare_transaction(const core::Transaction& golden,
                         const core::Transaction& observed,
                         const CompareOptions& options,
                         std::vector<Mismatch>& out) {
  bool any = false;
  // Counts where quantization noise alone would break the margin are
  // exempt; the floor scales as margins tighten.
  std::int64_t min_count = options.min_count_for_margin;
  if (options.quantization_steps > 0.0 && options.margin_pct > 0.0) {
    min_count = std::max(
        min_count, static_cast<std::int64_t>(
                       options.quantization_steps * 100.0 /
                       options.margin_pct));
  }
  for (std::size_t c = 0; c < 4; ++c) {
    const auto g = static_cast<std::int64_t>(golden.counts[c]);
    const auto o = static_cast<std::int64_t>(observed.counts[c]);
    if (g == o) continue;
    // Skip percentage judgement on near-zero counts: immediately after
    // homing a single step of drift would register as a huge percentage.
    if (std::llabs(g) < min_count && std::llabs(o) < min_count) {
      continue;
    }
    const double pct = 100.0 * static_cast<double>(std::llabs(g - o)) /
                       static_cast<double>(std::max<std::int64_t>(
                           std::llabs(g), 1));
    if (pct > options.margin_pct) {
      out.push_back({golden.index, c, golden.counts[c], observed.counts[c],
                     pct});
      any = true;
    }
  }
  return any;
}

Report compare(const core::Capture& golden, const core::Capture& observed,
               const CompareOptions& options) {
  Report rep;
  rep.golden_length = golden.transactions.size();
  rep.observed_length = observed.transactions.size();

  const std::size_t n =
      std::min(golden.transactions.size(), observed.transactions.size());
  rep.transactions_compared = n;
  for (std::size_t i = 0; i < n; ++i) {
    if (options.window_slack == 0) {
      compare_transaction(golden.transactions[i], observed.transactions[i],
                          options, rep.mismatches);
      continue;
    }
    // Slack matching: the observed window passes if ANY golden window
    // within +/- slack matches it; otherwise report the mismatches of
    // the best (fewest-violations) candidate.  Only the candidates that
    // exist are visited, so a huge slack costs one pass over the golden.
    const std::size_t slack = options.window_slack;
    const std::size_t last =
        std::min(golden.transactions.size() - 1, i + slack);
    std::vector<Mismatch> best;
    bool matched = false;
    for (std::size_t gi = i > slack ? i - slack : 0; gi <= last && !matched;
         ++gi) {
      std::vector<Mismatch> candidate;
      if (!compare_transaction(golden.transactions[gi],
                               observed.transactions[i], options,
                               candidate)) {
        matched = true;
      } else if (best.empty() || candidate.size() < best.size()) {
        best = std::move(candidate);
      }
    }
    if (!matched) {
      rep.mismatches.insert(rep.mismatches.end(), best.begin(), best.end());
    }
  }
  for (const auto& m : rep.mismatches) {
    rep.largest_percent = std::max(rep.largest_percent, m.percent);
  }

  // Print-length anomaly: a Trojan that adds or removes work changes how
  // long the print runs, hence how many transactions stream out.
  const double longer = static_cast<double>(
      std::max(rep.golden_length, rep.observed_length));
  if (longer > 0.0) {
    const double diff =
        std::abs(static_cast<double>(rep.golden_length) -
                 static_cast<double>(rep.observed_length)) /
        longer;
    rep.length_anomaly = diff > options.length_tolerance;
  }

  // Final 0%-margin totals check.
  rep.golden_final = golden.final_counts;
  rep.observed_final = observed.final_counts;
  if (options.final_check) {
    rep.final_counts_match = golden.final_counts == observed.final_counts;
  }

  rep.trojan_likely = !rep.mismatches.empty() || rep.length_anomaly ||
                      !rep.final_counts_match;
  return rep;
}

std::string Report::to_string(std::size_t max_lines) const {
  std::string out;
  char buf[160];
  std::size_t shown = 0;
  for (const auto& m : mismatches) {
    if (shown++ >= max_lines) {
      out += "...\n";
      break;
    }
    std::snprintf(buf, sizeof(buf),
                  "Index: %u, Column: %s, Values: %d, %d\n", m.index,
                  column_name(m.column), m.golden, m.observed);
    out += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "Largest percent difference found: %.2f%%\n",
                largest_percent);
  out += buf;
  std::snprintf(buf, sizeof(buf), "Number of transactions compared: %zu\n",
                transactions_compared);
  out += buf;
  std::snprintf(buf, sizeof(buf), "Number of mismatches: %zu\n",
                mismatch_count());
  out += buf;
  if (length_anomaly) {
    std::snprintf(buf, sizeof(buf),
                  "Print length anomaly: golden %zu vs observed %zu "
                  "transactions\n",
                  golden_length, observed_length);
    out += buf;
  }
  if (!final_counts_match) {
    std::snprintf(buf, sizeof(buf),
                  "Final counts mismatch: golden [%lld, %lld, %lld, %lld] "
                  "vs observed [%lld, %lld, %lld, %lld]\n",
                  static_cast<long long>(golden_final[0]),
                  static_cast<long long>(golden_final[1]),
                  static_cast<long long>(golden_final[2]),
                  static_cast<long long>(golden_final[3]),
                  static_cast<long long>(observed_final[0]),
                  static_cast<long long>(observed_final[1]),
                  static_cast<long long>(observed_final[2]),
                  static_cast<long long>(observed_final[3]));
    out += buf;
  }
  out += trojan_likely ? "Trojan likely!\n" : "No Trojan suspected.\n";
  return out;
}

}  // namespace offramps::detect
