#include "analyze/analyzer.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "analyze/pass.hpp"
#include "obs/json.hpp"

namespace offramps::analyze {

bool AnalysisResult::clean() const {
  return std::none_of(findings.begin(), findings.end(), [](const Finding& f) {
    return f.severity != Severity::kNote;
  });
}

std::size_t AnalysisResult::count(FindingCode c) const {
  return static_cast<std::size_t>(
      std::count_if(findings.begin(), findings.end(),
                    [c](const Finding& f) { return f.code == c; }));
}

std::string AnalysisResult::to_string(std::size_t max_findings) const {
  std::string out;
  char buf[256];
  std::snprintf(
      buf, sizeof(buf),
      "oracle: steps X %lld Y %lld Z %lld E %lld (%s), %.2f mm extruded, "
      "%.2f mm retracted, %llu moves (%llu extruding)\n",
      static_cast<long long>(oracle.expected_counts[0]),
      static_cast<long long>(oracle.expected_counts[1]),
      static_cast<long long>(oracle.expected_counts[2]),
      static_cast<long long>(oracle.expected_counts[3]),
      oracle.counters_armed ? "armed" : "never armed", oracle.extruded_mm,
      oracle.retracted_mm,
      static_cast<unsigned long long>(oracle.move_count),
      static_cast<unsigned long long>(oracle.extrusion_move_count));
  out += buf;
  std::size_t shown = 0;
  for (const auto& f : findings) {
    if (shown++ >= max_findings) {
      std::snprintf(buf, sizeof(buf), "  ... %zu more finding(s)\n",
                    findings.size() - max_findings);
      out += buf;
      break;
    }
    std::snprintf(buf, sizeof(buf), "  [%s] %s at command %zu: %s\n",
                  severity_name(f.severity), finding_code_name(f.code),
                  f.command_index, f.message.c_str());
    out += buf;
  }
  if (findings.empty()) out += "  no findings\n";
  return out;
}

std::string AnalysisResult::to_json() const {
  std::string out = "{\n  \"clean\": ";
  out += clean() ? "true" : "false";
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      ",\n  \"oracle\": {\n    \"counters_armed\": %s,\n"
      "    \"expected_counts\": [%lld, %lld, %lld, %lld],\n"
      "    \"total_pulses\": [%llu, %llu, %llu, %llu],\n"
      "    \"extruded_mm\": %.6f,\n    \"retracted_mm\": %.6f,\n"
      "    \"extrusion_path_mm\": %.6f,\n    \"moves\": %llu,\n"
      "    \"extrusion_moves\": %llu,\n"
      "    \"max_stationary_e_mm\": %.6f\n  }",
      oracle.counters_armed ? "true" : "false",
      static_cast<long long>(oracle.expected_counts[0]),
      static_cast<long long>(oracle.expected_counts[1]),
      static_cast<long long>(oracle.expected_counts[2]),
      static_cast<long long>(oracle.expected_counts[3]),
      static_cast<unsigned long long>(oracle.total_pulses[0]),
      static_cast<unsigned long long>(oracle.total_pulses[1]),
      static_cast<unsigned long long>(oracle.total_pulses[2]),
      static_cast<unsigned long long>(oracle.total_pulses[3]),
      oracle.extruded_mm, oracle.retracted_mm, oracle.extrusion_path_mm,
      static_cast<unsigned long long>(oracle.move_count),
      static_cast<unsigned long long>(oracle.extrusion_move_count),
      oracle.max_stationary_e_mm);
  out += buf;
  out += ",\n  \"findings\": [";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    out += i == 0 ? "\n" : ",\n";
    std::snprintf(buf, sizeof(buf),
                  "    {\"code\": \"%s\", \"pass\": \"%s\", "
                  "\"severity\": \"%s\", "
                  "\"command\": %zu, \"value\": %.6f, \"bound\": %.6f, "
                  "\"message\": ",
                  finding_code_name(f.code), f.pass.c_str(),
                  severity_name(f.severity), f.command_index, f.value,
                  f.bound);
    out += buf;
    obs::append_json_string(out, f.message);
    out += "}";
  }
  out += findings.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

AnalysisResult analyze_program(const gcode::Program& program,
                               const fw::Config& config,
                               const AnalyzeOptions& options) {
  AnalysisResult result;
  PassManager manager(config, options);
  manager.run(program, result);
  return result;
}

std::size_t compare_with_baseline(const AnalysisResult& baseline,
                                  AnalysisResult& suspect,
                                  const AnalyzeOptions& options) {
  // The comparison phase never touches machine geometry, but the manager
  // API threads a config through uniformly; the default-constructed one
  // is fine (and building it once avoids re-parsing defaults per call).
  static const fw::Config kConfig{};
  PassManager manager(kConfig, options);
  return manager.compare(baseline, suspect);
}

}  // namespace offramps::analyze
