// Quickstart: print a 10 mm calibration cube through the full simulated
// stack (Marlin-like firmware -> OFFRAMPS board in MITM mode -> printer),
// with the FPGA monitoring gateware capturing the print, and show the
// capture summary plus part metrics.
//
// This is the "hello world" of the library: no Trojans, golden behaviour.
#include <cstdio>

#include "core/cli.hpp"
#include "gcode/stats.hpp"
#include "host/rig.hpp"
#include "host/slicer.hpp"

int main(int argc, char** argv) {
  using namespace offramps;
  core::cli::Parser().parse_or_exit(
      argc, argv, 1, "usage: quickstart (takes no arguments)\n");

  // 1. Slice a small cube the way Cura would.
  host::SliceProfile profile;
  host::CubeSpec cube{.size_x_mm = 10.0,
                      .size_y_mm = 10.0,
                      .height_mm = 4.0,
                      .center_x_mm = 110.0,
                      .center_y_mm = 100.0};
  const gcode::Program program = host::slice_cube(cube, profile);
  const gcode::Statistics stats = gcode::analyze(program);
  std::printf("sliced cube: %llu commands, %llu moves, %.1f mm extruded, "
              "%zu layers\n",
              static_cast<unsigned long long>(stats.command_count),
              static_cast<unsigned long long>(stats.move_count),
              stats.extruded_mm, stats.layer_z.size());

  // 2. Assemble the rig: firmware + OFFRAMPS (MITM route) + printer.
  host::RigOptions options;
  options.route = core::RouteMode::kFpgaMitm;
  host::Rig rig(options);

  // 3. Print.
  const host::RunResult result = rig.run(program);

  std::printf("print %s in %.1f simulated seconds (%llu events)\n",
              result.finished ? "finished" : "DID NOT FINISH",
              result.sim_seconds,
              static_cast<unsigned long long>(result.events_executed));
  if (result.killed) {
    std::printf("firmware killed: %s\n", result.kill_reason.c_str());
  }

  // 4. What the OFFRAMPS captured.
  std::printf("capture: %zu transactions; final counts X=%lld Y=%lld "
              "Z=%lld E=%lld\n",
              result.capture.size(),
              static_cast<long long>(result.capture.final_counts[0]),
              static_cast<long long>(result.capture.final_counts[1]),
              static_cast<long long>(result.capture.final_counts[2]),
              static_cast<long long>(result.capture.final_counts[3]));

  // 5. What the printer made of it.
  std::printf("part: %zu layers, footprint %.2f x %.2f mm, filament "
              "%.1f mm, max layer shift %.3f mm\n",
              result.part.layer_count, result.part.bbox_width_mm,
              result.part.bbox_depth_mm, result.part.total_filament_mm,
              result.part.max_layer_shift_mm);
  std::printf("flow ratio (motor/commanded E): %.3f\n", result.flow_ratio());
  std::printf("hotend peak %.1f C, mean fan %.0f rpm\n",
              result.hotend_peak_c, result.mean_fan_rpm);
  return result.finished ? 0 : 1;
}
