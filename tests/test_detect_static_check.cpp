// Tests for detect::static_check - the golden-free runtime cross-check
// that compares an OFFRAMPS capture against the static step oracle.
#include <gtest/gtest.h>

#include <string>

#include "analyze/analyzer.hpp"
#include "detect/static_check.hpp"
#include "gcode/flaw3d.hpp"
#include "gcode/parser.hpp"
#include "host/rig.hpp"
#include "host/slicer.hpp"

namespace offramps::detect {
namespace {

/// A report's fields, for the message of a failed expectation.
std::string fields(const StaticCheckReport& r) {
  return "mismatches " + std::to_string(r.mismatches.size()) +
         ", largest " + std::to_string(r.largest_percent) + "%, armed " +
         std::to_string(r.oracle_armed) + ", completed " +
         std::to_string(r.print_completed);
}

gcode::Program test_object() {
  host::SliceProfile profile;
  host::CubeSpec cube{.size_x_mm = 8, .size_y_mm = 8, .height_mm = 2,
                      .center_x_mm = 110, .center_y_mm = 100};
  return host::slice_cube(cube, profile);
}

core::Capture print_capture(const gcode::Program& program,
                            std::uint64_t seed) {
  host::RigOptions options;
  options.firmware.jitter_seed = seed;
  host::Rig rig(options);
  host::RunResult r = rig.run(program);
  EXPECT_TRUE(r.finished);
  return std::move(r.capture);
}

struct StaticCheckFixture : ::testing::Test {
  static analyze::Oracle* oracle;  // static oracle of the clean program

  static void SetUpTestSuite() {
    oracle = new analyze::Oracle(
        analyze::analyze_program(test_object()).oracle);
  }
  static void TearDownTestSuite() {
    delete oracle;
    oracle = nullptr;
  }
};

analyze::Oracle* StaticCheckFixture::oracle = nullptr;

TEST_F(StaticCheckFixture, CleanPrintPasses) {
  const core::Capture cap = print_capture(test_object(), /*seed=*/1);
  const StaticCheckReport rep = static_check(*oracle, cap);
  EXPECT_FALSE(rep.trojan_suspected) << fields(rep);
  EXPECT_TRUE(rep.oracle_armed);
  EXPECT_TRUE(rep.print_completed);
}

TEST_F(StaticCheckFixture, CleanPrintPassesUnderDifferentSeed) {
  const core::Capture cap = print_capture(test_object(), /*seed=*/424242);
  EXPECT_FALSE(static_check(*oracle, cap).trojan_suspected);
}

TEST_F(StaticCheckFixture, StealthiestReductionIsCaught) {
  // 2% extrusion loss hides inside the paper's 5% golden margin on
  // windowed counts; the static check's tight margin catches it from the
  // final counters alone - with no golden print ever made.
  const auto mutated =
      gcode::flaw3d::apply_reduction(test_object(), {.factor = 0.98});
  const core::Capture cap = print_capture(mutated, /*seed=*/7);
  const StaticCheckReport rep = static_check(*oracle, cap);
  EXPECT_TRUE(rep.trojan_suspected) << fields(rep);
  ASSERT_FALSE(rep.mismatches.empty());
  EXPECT_EQ(rep.mismatches[0].axis, 3u);  // the E axis diverges
}

TEST_F(StaticCheckFixture, GrossReductionIsCaught) {
  const auto mutated =
      gcode::flaw3d::apply_reduction(test_object(), {.factor = 0.5});
  const core::Capture cap = print_capture(mutated, /*seed=*/7);
  EXPECT_TRUE(static_check(*oracle, cap).trojan_suspected);
}

TEST_F(StaticCheckFixture, AbortedPrintIsInconclusiveButSuspect) {
  core::Capture cap = print_capture(test_object(), /*seed=*/1);
  cap.print_completed = false;
  const StaticCheckReport rep = static_check(*oracle, cap);
  EXPECT_TRUE(rep.trojan_suspected);
  EXPECT_FALSE(rep.print_completed);
}

TEST(StaticCheck, NeverArmedOracleIsInconclusive) {
  const analyze::AnalysisResult res = analyze::analyze_program(
      gcode::parse_program("G21\nG90\nG1 X10 F3000\n"));
  core::Capture cap;
  cap.print_completed = true;
  const StaticCheckReport rep = static_check(res.oracle, cap);
  EXPECT_TRUE(rep.trojan_suspected);
  EXPECT_FALSE(rep.oracle_armed);
}

TEST(StaticCheck, MarginRespectsAbsoluteSlack) {
  analyze::Oracle oracle;
  oracle.counters_armed = true;
  oracle.expected_counts = {1000, 1000, 100, 1000};
  core::Capture cap;
  cap.print_completed = true;
  cap.final_counts = {1000, 1000, 104, 1000};  // +4 steps on Z
  StaticCheckOptions options;
  options.slack_steps = 8;
  EXPECT_FALSE(static_check(oracle, cap, options).trojan_suspected);
  options.slack_steps = 2;
  EXPECT_TRUE(static_check(oracle, cap, options).trojan_suspected);
}

}  // namespace
}  // namespace offramps::detect
