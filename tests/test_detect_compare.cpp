// Unit tests for the golden-capture comparison (the paper's detection
// script, Figure 4c).
#include <gtest/gtest.h>

#include "detect/compare.hpp"

namespace offramps::detect {
namespace {

core::Capture make_capture(std::initializer_list<std::array<int, 4>> rows,
                           bool completed = true) {
  core::Capture cap;
  std::uint32_t i = 0;
  for (const auto& row : rows) {
    core::Transaction t;
    t.index = i++;
    for (std::size_t c = 0; c < 4; ++c) t.counts[c] = row[c];
    cap.transactions.push_back(t);
  }
  if (!cap.transactions.empty()) {
    for (std::size_t c = 0; c < 4; ++c) {
      cap.final_counts[c] = cap.transactions.back().counts[c];
    }
  }
  cap.print_completed = completed;
  return cap;
}

TEST(Compare, IdenticalCapturesAreClean) {
  const auto golden = make_capture({{100, 200, 30, 400}, {200, 400, 30, 800}});
  const Report rep = compare(golden, golden);
  EXPECT_FALSE(rep.trojan_likely);
  EXPECT_EQ(rep.mismatch_count(), 0u);
  EXPECT_TRUE(rep.final_counts_match);
  EXPECT_EQ(rep.transactions_compared, 2u);
}

TEST(Compare, DriftWithinMarginIsTolerated) {
  const auto golden =
      make_capture({{1000, 2000, 300, 4000}, {2000, 4000, 300, 8000}});
  // 3% off everywhere, same finals.
  auto observed =
      make_capture({{1030, 2060, 309, 4120}, {2060, 4120, 309, 8240}});
  observed.final_counts = golden.final_counts;
  const Report rep = compare(golden, observed);
  EXPECT_EQ(rep.mismatch_count(), 0u);
  EXPECT_FALSE(rep.trojan_likely);
}

TEST(Compare, BeyondMarginIsMismatch) {
  const auto golden = make_capture({{1000, 2000, 300, 4000}});
  const auto observed = make_capture({{1100, 2000, 300, 4000}});  // 10% X
  const Report rep = compare(golden, observed);
  ASSERT_EQ(rep.mismatch_count(), 1u);
  EXPECT_EQ(rep.mismatches[0].column, 0u);
  EXPECT_NEAR(rep.mismatches[0].percent, 10.0, 0.01);
  EXPECT_TRUE(rep.trojan_likely);
}

TEST(Compare, TinyCountsAreExemptFromPercentageTest) {
  // 3 vs 6 steps is 100% but far below min_count_for_margin.
  const auto golden = make_capture({{3, 0, 0, 0}});
  auto observed = make_capture({{6, 0, 0, 0}});
  observed.final_counts = golden.final_counts;
  const Report rep = compare(golden, observed);
  EXPECT_EQ(rep.mismatch_count(), 0u);
}

TEST(Compare, FinalCheckHasZeroMargin) {
  const auto golden = make_capture({{1000, 2000, 300, 4000}});
  auto observed = golden;
  observed.final_counts[3] += 1;  // one step short at print end
  const Report rep = compare(golden, observed);
  EXPECT_EQ(rep.mismatch_count(), 0u);
  EXPECT_FALSE(rep.final_counts_match);
  EXPECT_TRUE(rep.trojan_likely);
}

TEST(Compare, FinalCheckCanBeDisabled) {
  const auto golden = make_capture({{1000, 2000, 300, 4000}});
  auto observed = golden;
  observed.final_counts[3] += 1;
  CompareOptions opt;
  opt.final_check = false;
  const Report rep = compare(golden, observed, opt);
  EXPECT_FALSE(rep.trojan_likely);
}

TEST(Compare, LengthAnomalyFlagsTruncatedPrints) {
  const auto golden = make_capture(
      {{100, 0, 0, 0}, {200, 0, 0, 0}, {300, 0, 0, 0}, {400, 0, 0, 0}});
  const auto observed = make_capture({{100, 0, 0, 0}, {200, 0, 0, 0}});
  const Report rep = compare(golden, observed);
  EXPECT_TRUE(rep.length_anomaly);
  EXPECT_TRUE(rep.trojan_likely);
}

TEST(Compare, MarginIsConfigurable) {
  const auto golden = make_capture({{1000, 0, 0, 0}});
  auto observed = make_capture({{1030, 0, 0, 0}});  // 3%
  observed.final_counts = golden.final_counts;
  CompareOptions tight;
  tight.margin_pct = 1.0;
  EXPECT_TRUE(compare(golden, observed, tight).trojan_likely);
  CompareOptions loose;
  loose.margin_pct = 5.0;
  EXPECT_FALSE(compare(golden, observed, loose).trojan_likely);
}

TEST(Compare, LargestPercentIsTracked) {
  const auto golden = make_capture({{1000, 2000, 300, 4000}});
  const auto observed = make_capture({{1100, 3000, 300, 4000}});
  const Report rep = compare(golden, observed);
  EXPECT_NEAR(rep.largest_percent, 50.0, 0.01);  // the Y column
}

TEST(Compare, ReportRendersPaperStyleOutput) {
  const auto golden = make_capture({{7218, 8285, 960, 52856}});
  const auto observed = make_capture({{6489, 8285, 960, 52856}});
  const Report rep = compare(golden, observed);
  const std::string text = rep.to_string();
  EXPECT_NE(text.find("Index: 0, Column: X, Values: 7218, 6489"),
            std::string::npos);
  EXPECT_NE(text.find("Largest percent difference found:"),
            std::string::npos);
  EXPECT_NE(text.find("Number of transactions compared: 1"),
            std::string::npos);
  EXPECT_NE(text.find("Trojan likely!"), std::string::npos);
}

TEST(Compare, CleanReportSaysNoTrojan) {
  const auto golden = make_capture({{100, 200, 30, 400}});
  const std::string text = compare(golden, golden).to_string();
  EXPECT_NE(text.find("No Trojan suspected."), std::string::npos);
}

TEST(Compare, EmptyCapturesCompareClean) {
  const core::Capture empty;
  const Report rep = compare(empty, empty);
  EXPECT_FALSE(rep.trojan_likely);
  EXPECT_EQ(rep.transactions_compared, 0u);
}

TEST(Compare, ColumnNames) {
  EXPECT_STREQ(column_name(0), "X");
  EXPECT_STREQ(column_name(3), "E");
  EXPECT_STREQ(column_name(9), "?");
}

// A slack past the capture's ends visits only the golden windows that
// exist, so UINT32_MAX reports exactly what slack = golden size does, in
// about the same time (the TIMEOUT in tests/CMakeLists.txt holds it to
// that: stepping through all 2^33 offsets per window takes minutes).
TEST(Compare, HugeSlackMatchesSlackOfTheWholeCapture) {
  core::Capture golden;
  core::Capture observed;
  for (std::int32_t i = 0; i < 40; ++i) {
    core::Transaction g;
    g.index = static_cast<std::uint32_t>(i);
    g.counts = {1000 * (i + 1), 500 * (i % 7 + 1), 40, 800 * (i + 1)};
    golden.transactions.push_back(g);
    core::Transaction o = g;
    // One window in five matches no golden window at all, so the
    // fewest-violations candidate is reported.
    if (i % 5 == 0) o.counts[3] += 300 + 17 * i;
    observed.transactions.push_back(o);
  }
  CompareOptions whole;
  whole.window_slack = static_cast<std::uint32_t>(golden.transactions.size());
  CompareOptions huge;
  huge.window_slack = UINT32_MAX;
  const Report a = compare(golden, observed, whole);
  const Report b = compare(golden, observed, huge);
  ASSERT_GT(a.mismatch_count(), 0u);
  ASSERT_EQ(a.mismatch_count(), b.mismatch_count());
  for (std::size_t k = 0; k < a.mismatches.size(); ++k) {
    EXPECT_EQ(a.mismatches[k].index, b.mismatches[k].index);
    EXPECT_EQ(a.mismatches[k].column, b.mismatches[k].column);
    EXPECT_EQ(a.mismatches[k].golden, b.mismatches[k].golden);
    EXPECT_EQ(a.mismatches[k].observed, b.mismatches[k].observed);
  }
  EXPECT_EQ(a.to_string(1000), b.to_string(1000));
}

// Property sweep: deviations strictly above the margin are flagged, at or
// below are not (boundary behaviour of the margin test).
class MarginSweep : public ::testing::TestWithParam<double> {};

TEST_P(MarginSweep, BoundaryBehaviour) {
  const double margin = GetParam();
  CompareOptions opt;
  opt.margin_pct = margin;
  opt.final_check = false;
  const auto golden = make_capture({{10000, 0, 0, 0}});
  const auto delta =
      static_cast<int>(10000.0 * margin / 100.0);
  auto at_margin = make_capture({{10000 + delta, 0, 0, 0}});
  EXPECT_FALSE(compare(golden, at_margin, opt).trojan_likely)
      << "at margin " << margin;
  auto above = make_capture({{10000 + delta + 100, 0, 0, 0}});
  EXPECT_TRUE(compare(golden, above, opt).trojan_likely)
      << "above margin " << margin;
}

INSTANTIATE_TEST_SUITE_P(Margins, MarginSweep,
                         ::testing::Values(1.0, 2.0, 5.0, 10.0));

}  // namespace
}  // namespace offramps::detect
