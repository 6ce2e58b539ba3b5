// gcode_tool: a small command-line utility over the library's host-side
// g-code facilities - the kind of tooling a downstream user reaches for
// first.
//
//   gcode_tool stats   [file]        print program statistics
//   gcode_tool reduce  FACTOR [file] apply the Flaw3D reduction Trojan
//   gcode_tool relocate N [file]     apply the Flaw3D relocation Trojan
//   gcode_tool demo                  emit a sliced demo cube to stdout
//
// With no file, g-code is read from stdin.  Mutated programs are written
// to stdout, so mutations compose with shell pipelines:
//
//   gcode_tool demo | gcode_tool reduce 0.5 | gcode_tool stats
//
// Exit codes: 0 done, 1 malformed g-code, 2 usage error (an unknown mode
// or argument, a FACTOR outside (0, 1], an N below 1, an unreadable
// file).
#include <cstdio>
#include <string>

#include "core/cli.hpp"
#include "gcode/flaw3d.hpp"
#include "gcode/parser.hpp"
#include "gcode/stats.hpp"
#include "gcode/writer.hpp"
#include "host/slicer.hpp"
#include "host/time_estimator.hpp"
#include "sim/error.hpp"

using namespace offramps;

namespace {

constexpr const char* kUsage =
    "usage: gcode_tool {stats [FILE] | reduce FACTOR [FILE] |\n"
    "                   relocate N [FILE] | demo}\n"
    "  FACTOR  Flaw3D reduction factor in (0, 1]\n"
    "  N       Flaw3D relocation: dump every N moves, N >= 1\n"
    "  FILE    g-code input ('-' or absent = stdin)\n";

int cmd_stats(const gcode::Program& program) {
  const gcode::Statistics s = gcode::analyze(program);
  std::printf("commands:          %llu\n",
              static_cast<unsigned long long>(s.command_count));
  std::printf("moves:             %llu (%llu extrusion, %llu travel, "
              "%llu retraction)\n",
              static_cast<unsigned long long>(s.move_count),
              static_cast<unsigned long long>(s.extrusion_move_count),
              static_cast<unsigned long long>(s.travel_move_count),
              static_cast<unsigned long long>(s.retraction_count));
  std::printf("filament:          %.2f mm extruded, %.2f mm retracted "
              "(net %.2f mm)\n",
              s.extruded_mm, s.retracted_mm, s.net_e_mm());
  std::printf("path:              %.1f mm printing, %.1f mm travel\n",
              s.extrusion_path_mm, s.travel_path_mm);
  std::printf("layers:            %zu (max z %.2f mm)\n", s.layer_z.size(),
              s.max_z);
  if (s.extrusion_bbox.valid) {
    std::printf("footprint:         %.1f x %.1f mm at (%.1f, %.1f)\n",
                s.extrusion_bbox.width(), s.extrusion_bbox.depth(),
                s.extrusion_bbox.min_x, s.extrusion_bbox.min_y);
  }
  std::printf("naive print time:  %.0f s (feedrate-only estimate)\n",
              s.naive_time_s);
  return 0;
}

int cmd_stats_with_estimate(const gcode::Program& program) {
  cmd_stats(program);
  const host::TimeEstimate est = host::estimate_print_time(program);
  std::printf("planned time:      %.0f s motion + %.0f s dwell over %zu "
              "moves (trapezoid model)\n",
              est.motion_s, est.dwell_s, est.moves);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "";
  if (mode != "stats" && mode != "reduce" && mode != "relocate" &&
      mode != "demo") {
    std::fprintf(stderr, "unknown mode '%s'\n%s", mode.c_str(), kUsage);
    return 2;
  }
  double factor = 0.0;
  std::uint32_t every_n = 0;
  std::string path = "-";
  core::cli::Parser args;
  if (mode == "reduce") args.positive("FACTOR", factor, 1.0).required();
  if (mode == "relocate") args.count("N", every_n, 1).required();
  if (mode != "demo") args.text("FILE", path);
  args.parse_or_exit(argc, argv, 2, kUsage);

  if (mode == "demo") {
    host::SliceProfile profile;
    host::CubeSpec cube{.size_x_mm = 15, .size_y_mm = 15, .height_mm = 5,
                        .center_x_mm = 110, .center_y_mm = 100};
    std::fputs(gcode::write_program(host::slice_cube(cube, profile)).c_str(),
               stdout);
    return 0;
  }
  std::string text;
  try {
    text = core::cli::read_text(path, "gcode_tool");
  } catch (const offramps::Error& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  try {
    const gcode::Program program = gcode::parse_program(text);
    if (mode == "stats") return cmd_stats_with_estimate(program);
    gcode::flaw3d::MutationReport report;
    const gcode::Program mutated =
        mode == "reduce"
            ? gcode::flaw3d::apply_reduction(program, {.factor = factor},
                                             &report)
            : gcode::flaw3d::apply_relocation(
                  program, {.every_n_moves = every_n, .take_fraction = 0.15},
                  &report);
    std::fputs(gcode::write_program(mutated).c_str(), stdout);
    if (mode == "reduce") {
      std::fprintf(stderr, "reduced %llu moves: %.1f mm -> %.1f mm\n",
                   static_cast<unsigned long long>(report.moves_modified),
                   report.e_in_mm, report.e_out_mm);
    } else {
      std::fprintf(stderr, "inserted %llu relocation dumps\n",
                   static_cast<unsigned long long>(report.commands_inserted));
    }
    return 0;
  } catch (const offramps::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
