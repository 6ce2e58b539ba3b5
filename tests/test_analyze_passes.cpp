// Pass-framework tests: the fixed pass list, pass subset selection,
// per-pass severity overrides, the two new flow-sensitive checks
// (post-abort reachability, M220/M221/M104 override taint), and the
// --json schema's pass field.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "analyze/analyzer.hpp"
#include "analyze/pass.hpp"
#include "gcode/parser.hpp"
#include "sim/error.hpp"

namespace offramps::analyze {
namespace {

gcode::Program parse(const std::string& text) {
  return gcode::parse_program(text);
}

/// A minimal homed preamble: arms the counters and heats the hotend.
const char* kPreamble =
    "G21\nG90\nM83\nG28\nM109 S200\n"
    "G1 X10 Y10 F3000 E2\n";  // printing starts here

// --- pass list ---------------------------------------------------------------

TEST(PassList, MakesTheEightBuiltinPassesInEmissionOrder) {
  // The exact --list-passes rows: list order is finding emission order
  // within one command, so a reordered or renamed pass changes reports.
  const std::vector<std::pair<std::string, std::string>> expected = {
      {"thermal",
       "cold-extrusion, cold-extrusion-risk, thermal-overtemp, "
       "temp-override (heater setpoint model)"},
      {"kinematics-limits", "axis-limit, feedrate-limit (machine envelope)"},
      {"extrusion",
       "inplace-extrusion (stationary advance beyond the retraction debt: "
       "relocation blob dumps)"},
      {"structure", "unknown-command (words the firmware would ignore)"},
      {"reachability",
       "unreachable-commands, post-abort-motion (flow-sensitive dead-code "
       "scan after M112)"},
      {"taint",
       "feedrate-override-taint, flow-override-taint, temp-override-taint "
       "(mid-print M220/M221/M104 overrides)"},
      {"oracle",
       "step-count oracle (segments, expected counts), rehome-uncertainty, "
       "counters-not-armed"},
      {"baseline-compare",
       "move-count/segment/step-count/extrusion-total/ratio mismatches "
       "against a known-good baseline"}};
  std::vector<std::pair<std::string, std::string>> listed;
  for (const auto& pass : make_passes()) {
    const PassInfo info = pass->info();
    listed.emplace_back(info.id, info.description);
  }
  EXPECT_EQ(listed, expected);
}

// --- pass selection ----------------------------------------------------------

TEST(PassSelection, SubsetRunsOnlyThosePasses) {
  // A program with both an unknown command (structure) and a cold
  // extrusion (thermal): enabling only "structure" must keep the
  // thermal finding out.
  const gcode::Program program = parse("G28\nM999\nG1 X5 E1 F3000\n");
  AnalyzeOptions options;
  options.passes = {"structure"};
  const AnalysisResult res = analyze_program(program, {}, options);
  EXPECT_TRUE(res.has(FindingCode::kUnknownCommand));
  EXPECT_FALSE(res.has(FindingCode::kColdExtrusion));
  for (const Finding& f : res.findings) EXPECT_EQ(f.pass, "structure");
}

TEST(PassSelection, DisablingOracleSkipsItsNotes) {
  const gcode::Program program = parse("G1 X5 F3000\n");  // never homes
  AnalyzeOptions options;
  options.passes = {"structure"};
  const AnalysisResult res = analyze_program(program, {}, options);
  EXPECT_FALSE(res.has(FindingCode::kCountersNotArmed));
}

TEST(PassSelection, UnknownPassIdThrows) {
  AnalyzeOptions options;
  options.passes = {"bogus-pass"};
  EXPECT_THROW(analyze_program(parse("G28\n"), {}, options), Error);
}

TEST(PassSelection, UnknownSeverityPassIdThrows) {
  AnalyzeOptions options;
  options.pass_severity.emplace_back("bogus-pass", Severity::kNote);
  EXPECT_THROW(analyze_program(parse("G28\n"), {}, options), Error);
}

TEST(PassSelection, SelectionDoesNotChangeSharedState) {
  // The oracle must be identical whether or not other passes run: passes
  // observe the walk, they never steer it.
  const gcode::Program program =
      parse(std::string(kPreamble) + "G1 X20 Y15 E1.5\nG1 E-1 F1800\n");
  const AnalysisResult all = analyze_program(program);
  AnalyzeOptions only_oracle;
  only_oracle.passes = {"oracle"};
  const AnalysisResult one = analyze_program(program, {}, only_oracle);
  EXPECT_EQ(all.oracle.expected_counts, one.oracle.expected_counts);
  EXPECT_EQ(all.oracle.segments.size(), one.oracle.segments.size());
  EXPECT_EQ(all.oracle.extruded_mm, one.oracle.extruded_mm);
}

// --- severity overrides ------------------------------------------------------

TEST(PassSeverity, OverrideDemotesFindingsToNote) {
  const gcode::Program program = parse("G28\nM999\n");
  AnalyzeOptions options;
  options.pass_severity.emplace_back("structure", Severity::kNote);
  const AnalysisResult res = analyze_program(program, {}, options);
  ASSERT_TRUE(res.has(FindingCode::kUnknownCommand));
  for (const Finding& f : res.findings) {
    if (f.code == FindingCode::kUnknownCommand) {
      EXPECT_EQ(f.severity, Severity::kNote);
    }
  }
  // Demoted to note = clean exit for the CLI.
  EXPECT_TRUE(res.clean());
}

TEST(PassSeverity, OverridePromotesNotesToError) {
  const gcode::Program program = parse("G1 X5 F3000\n");  // never homes
  AnalyzeOptions options;
  options.pass_severity.emplace_back("oracle", Severity::kError);
  const AnalysisResult res = analyze_program(program, {}, options);
  ASSERT_TRUE(res.has(FindingCode::kCountersNotArmed));
  EXPECT_FALSE(res.clean());
}

TEST(PassSeverity, SeverityNamesRoundTrip) {
  Severity s{};
  EXPECT_TRUE(severity_from_name("note", s));
  EXPECT_EQ(s, Severity::kNote);
  EXPECT_TRUE(severity_from_name("warning", s));
  EXPECT_EQ(s, Severity::kWarning);
  EXPECT_TRUE(severity_from_name("error", s));
  EXPECT_EQ(s, Severity::kError);
  EXPECT_FALSE(severity_from_name("fatal", s));
}

// --- reachability: post-abort motion ----------------------------------------

TEST(ReachabilityPass, FlagsMotionAfterAbort) {
  const gcode::Program program =
      parse(std::string(kPreamble) + "M112\nG1 X50 Y50 E5\n");
  const AnalysisResult res = analyze_program(program);
  EXPECT_TRUE(res.has(FindingCode::kUnreachableCommands));
  EXPECT_TRUE(res.has(FindingCode::kPostAbortMotion)) << res.to_string();
}

TEST(ReachabilityPass, FlagsHeaterAfterAbort) {
  const gcode::Program program =
      parse(std::string(kPreamble) + "M112\nM104 S250\n");
  const AnalysisResult res = analyze_program(program);
  EXPECT_TRUE(res.has(FindingCode::kPostAbortMotion));
}

TEST(ReachabilityPass, QuietForHousekeepingTail) {
  // M107/M84 after M112 is a normal end sequence, not smuggled motion.
  const gcode::Program program =
      parse(std::string(kPreamble) + "M112\nM107\nM84\n");
  const AnalysisResult res = analyze_program(program);
  EXPECT_TRUE(res.has(FindingCode::kUnreachableCommands));
  EXPECT_FALSE(res.has(FindingCode::kPostAbortMotion));
}

TEST(ReachabilityPass, ReportsPostAbortMotionOnce) {
  const gcode::Program program =
      parse(std::string(kPreamble) + "M112\nG1 X50\nG1 X60\nG1 X70\n");
  const AnalysisResult res = analyze_program(program);
  EXPECT_EQ(res.count(FindingCode::kPostAbortMotion), 1u);
  EXPECT_EQ(res.count(FindingCode::kUnreachableCommands), 1u);
}

// --- taint: mid-print M220/M221/M104 ----------------------------------------

TEST(TaintPass, FlagsMidPrintFlowOverride) {
  // M221 S50 after printing started: the modal spelling of a FLAW3D
  // reduction - every later extrusion is silently halved.
  const gcode::Program program = parse(std::string(kPreamble) +
                                       "M221 S50\nG1 X20 Y10 E1\n");
  const AnalysisResult res = analyze_program(program);
  EXPECT_TRUE(res.has(FindingCode::kFlowOverrideTaint)) << res.to_string();
  EXPECT_FALSE(res.clean());
}

TEST(TaintPass, FlagsMidPrintFeedrateOverride) {
  const gcode::Program program = parse(std::string(kPreamble) +
                                       "M220 S40\nG1 X20 Y10 E1\n");
  const AnalysisResult res = analyze_program(program);
  EXPECT_TRUE(res.has(FindingCode::kFeedrateOverrideTaint));
}

TEST(TaintPass, FlagsUnwaitedMidPrintTempChange) {
  const gcode::Program program = parse(std::string(kPreamble) +
                                       "M104 S180\nG1 X20 Y10 E1\n");
  const AnalysisResult res = analyze_program(program);
  EXPECT_TRUE(res.has(FindingCode::kTempOverrideTaint)) << res.to_string();
}

TEST(TaintPass, WaitedTempChangeIsNotTaint) {
  // M109 blocks until the new setpoint is reached: the legitimate way to
  // change temperature mid-print.
  const gcode::Program program = parse(std::string(kPreamble) +
                                       "M109 S190\nG1 X20 Y10 E1\n");
  const AnalysisResult res = analyze_program(program);
  EXPECT_FALSE(res.has(FindingCode::kTempOverrideTaint));
}

TEST(TaintPass, RestoredOverrideClearsTaint) {
  // M221 back at 100% before the next extrusion: nothing tainted runs.
  const gcode::Program program = parse(std::string(kPreamble) +
                                       "M221 S50\nM221 S100\n"
                                       "G1 X20 Y10 E1\n");
  const AnalysisResult res = analyze_program(program);
  EXPECT_FALSE(res.has(FindingCode::kFlowOverrideTaint));
}

TEST(TaintPass, PrePrintOverridesAreNotTaint) {
  // An operator M221 before any extrusion is tuning, not tampering.
  const gcode::Program program =
      parse("G21\nG90\nM83\nM221 S95\nG28\nM109 S200\nG1 X10 Y10 E2 F3000\n");
  const AnalysisResult res = analyze_program(program);
  EXPECT_FALSE(res.has(FindingCode::kFlowOverrideTaint));
}

TEST(TaintPass, ReportsEachOverrideSiteOnce) {
  const gcode::Program program = parse(std::string(kPreamble) +
                                       "M221 S50\nG1 X20 E1\nG1 X30 E1\n"
                                       "M221 S60\nG1 X40 E1\n");
  const AnalysisResult res = analyze_program(program);
  EXPECT_EQ(res.count(FindingCode::kFlowOverrideTaint), 2u)
      << res.to_string();
}

// --- schema ------------------------------------------------------------------

TEST(PassSchema, JsonCarriesPassIdAndSeverity) {
  const AnalysisResult res = analyze_program(parse("G28\nM999\n"));
  const std::string json = res.to_json();
  EXPECT_NE(json.find("\"code\": \"unknown-command\""), std::string::npos);
  EXPECT_NE(json.find("\"pass\": \"structure\""), std::string::npos);
  EXPECT_NE(json.find("\"severity\": \"warning\""), std::string::npos);
}

TEST(PassSchema, EveryFindingIsAttributedToItsPass) {
  const gcode::Program program = parse(
      "M999\n"                    // structure
      "M104 S999\n"               // thermal (overtemp)
      "G1 X500 F99999 E1\n");     // kinematics (axis/feedrate) + thermal
  const AnalysisResult res = analyze_program(program);
  ASSERT_FALSE(res.findings.empty());
  for (const Finding& f : res.findings) {
    EXPECT_FALSE(f.pass.empty())
        << finding_code_name(f.code) << " finding lacks a pass id";
  }
}

}  // namespace
}  // namespace offramps::analyze
