// offramps_lint: static g-code analyzer CLI.
//
// Lints a g-code program against the machine envelope and the Flaw3D
// Trojan signatures without running the simulation, and optionally
// compares it against a known-good baseline program (exact static
// comparison - any motion divergence is flagged).
//
//   offramps_lint part.gcode                  lint one file
//   offramps_lint --baseline good.gcode part.gcode
//                                             also diff against a baseline
//   offramps_lint --json part.gcode           machine-readable output
//   offramps_lint --demo clean                self-generated demo input
//   offramps_lint --demo reduce:0.9           ... with a reduction Trojan
//   offramps_lint --demo relocate:20          ... with a relocation Trojan
//                                             (demo Trojans are linted
//                                             against the clean demo
//                                             baseline)
//
// Exit codes: 0 = clean, 1 = findings at warning severity or above,
// 2 = usage or parse error.
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "analyze/analyzer.hpp"
#include "analyze/pass.hpp"
#include "core/cli.hpp"
#include "gcode/flaw3d.hpp"
#include "gcode/parser.hpp"
#include "host/slicer.hpp"
#include "sim/error.hpp"
#include "svc/fleet.hpp"

namespace {

constexpr const char* kUsage =
    "usage: offramps_lint [--json] [--baseline FILE] [--passes LIST]\n"
    "                     [--severity PASS=LEVEL] [FILE|--demo SPEC]\n"
    "  FILE            g-code file to lint ('-' or absent = stdin)\n"
    "  --baseline FILE known-good program to diff against (exact)\n"
    "  --json          emit a JSON report instead of human diagnostics\n"
    "  --passes LIST   comma-separated pass ids to run (default: all;\n"
    "                  see --list-passes)\n"
    "  --severity P=L  force every finding of pass P to severity L\n"
    "                  (note|warning|error); repeatable\n"
    "  --list-passes   print the registered passes and exit\n"
    "  --demo SPEC     self-generated input: clean | reduce:FACTOR |\n"
    "                  relocate:N (Trojan demos are diffed against the\n"
    "                  clean demo baseline automatically)\n"
    "exit: 0 clean, 1 any alarm/lost/finding, 2 usage or spec error,\n"
    "75 partial campaign (never emitted by lint) - the same contract\n"
    "as offramps_fleetd and fault_campaign\n";

offramps::gcode::Program demo_program() {
  offramps::host::SliceProfile profile;
  offramps::host::CubeSpec cube;
  cube.size_x_mm = 8.0;
  cube.size_y_mm = 8.0;
  cube.height_mm = 2.0;
  return offramps::host::slice_cube(cube, profile);
}

/// Reads and parses a g-code file ('-' = stdin); nullopt and `error` on
/// failure.
std::optional<offramps::gcode::Program> load_program(const std::string& path,
                                                     std::string& error) {
  std::string text;
  try {
    text = offramps::core::cli::read_text(path, "offramps_lint");
  } catch (const offramps::Error& e) {
    error = e.what();
    return std::nullopt;
  }
  try {
    return offramps::gcode::parse_program(text);
  } catch (const std::exception& e) {
    error = std::string("parse error in '") + path + "': " + e.what();
    return std::nullopt;
  }
}

/// Splits a comma-separated pass list ("thermal,oracle").  Empty items
/// ("a,,b", trailing comma) are usage errors.
bool split_pass_list(const std::string& arg, std::vector<std::string>& out) {
  std::size_t start = 0;
  while (start <= arg.size()) {
    const std::size_t comma = arg.find(',', start);
    const std::size_t end = comma == std::string::npos ? arg.size() : comma;
    if (end == start) return false;
    out.push_back(arg.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return !out.empty();
}

}  // namespace

int main(int argc, char** argv) {
  bool help = false;
  bool json = false;
  bool list_passes = false;
  std::string baseline_path;
  std::string input_path = "-";
  offramps::svc::Sabotage demo;
  offramps::analyze::AnalyzeOptions options;

  offramps::core::cli::Parser args;
  args.flag("--help", help).alias("-h")
      .flag("--json", json)
      .flag("--list-passes", list_passes)
      .value("--passes",
             [&options](const std::string& v) {
               if (!split_pass_list(v, options.passes)) {
                 throw offramps::Error("want a comma-separated pass list");
               }
             })
      .value("--severity",
             [&options](const std::string& v) {
               const std::size_t eq = v.find('=');
               offramps::analyze::Severity severity{};
               if (eq == std::string::npos || eq == 0 ||
                   !offramps::analyze::severity_from_name(v.substr(eq + 1),
                                                          severity)) {
                 throw offramps::Error("want PASS=note|warning|error");
               }
               options.pass_severity.emplace_back(v.substr(0, eq), severity);
             })
      .repeatable()
      .text("--baseline", baseline_path)
      // One grammar for sabotage specs everywhere: svc::parse_sabotage
      // is strict (whole-string, locale-independent numbers), so
      // "reduce:0.5junk" is a usage error instead of linting as 0.5.
      .value("--demo",
             [&demo](const std::string& v) {
               demo = offramps::svc::parse_sabotage(v);
             })
      .text("FILE", input_path);
  args.parse_or_exit(argc, argv, 1, kUsage);
  if (help) {
    std::fputs(kUsage, stdout);
    return 0;
  }
  if (list_passes) {
    for (const auto& pass : offramps::analyze::make_passes()) {
      const offramps::analyze::PassInfo info = pass->info();
      std::fprintf(stdout, "%-18s %s\n", info.id.c_str(),
                   info.description.c_str());
    }
    return 0;
  }
  if (args.given("--demo") &&
      (args.given("FILE") || args.given("--baseline"))) {
    std::fputs("--demo does not combine with FILE or --baseline\n", stderr);
    return 2;
  }

  offramps::gcode::Program program;
  std::optional<offramps::gcode::Program> baseline;

  if (args.given("--demo")) {
    const offramps::gcode::Program clean = demo_program();
    switch (demo.kind) {
      case offramps::svc::Sabotage::Kind::kNone:
        program = clean;
        break;
      case offramps::svc::Sabotage::Kind::kReduction:
        program = offramps::gcode::flaw3d::apply_reduction(
            clean, {.factor = demo.factor});
        baseline = clean;
        break;
      case offramps::svc::Sabotage::Kind::kRelocation:
        program = offramps::gcode::flaw3d::apply_relocation(
            clean, {.every_n_moves = demo.every_n});
        baseline = clean;
        break;
    }
  } else {
    std::string error;
    auto loaded = load_program(input_path, error);
    if (!loaded) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 2;
    }
    program = std::move(*loaded);
    if (!baseline_path.empty()) {
      auto loaded_baseline = load_program(baseline_path, error);
      if (!loaded_baseline) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return 2;
      }
      baseline = std::move(*loaded_baseline);
    }
  }

  offramps::analyze::AnalysisResult result;
  try {
    result = offramps::analyze::analyze_program(program, {}, options);
    if (baseline) {
      const offramps::analyze::AnalysisResult base =
          offramps::analyze::analyze_program(*baseline, {}, options);
      offramps::analyze::compare_with_baseline(base, result, options);
    }
  } catch (const offramps::Error& e) {
    // Unknown pass id in --passes / --severity.
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  if (json) {
    std::fputs(result.to_json().c_str(), stdout);
  } else {
    std::fputs(result.to_string().c_str(), stdout);
    std::fprintf(stdout, "verdict: %s\n",
                 result.clean() ? "clean" : "FINDINGS");
  }
  return result.clean() ? 0 : 1;
}
