// Standalone (host-free) defense: the paper's detection workflow needs
// a connected PC running the comparison script, and its Limitations
// section flags that many printers run unattended, with no host at all.
// This example shows the extension that closes the gap: the golden model
// loaded into the FPGA fabric itself, with an autonomous safe-stop.
//
// Scene: a print farm runs jobs from local storage.  One job was
// tampered with upstream.  No computer is attached - only the OFFRAMPS
// board, carrying the golden model from a previously verified run.
#include <cstdio>

#include "core/cli.hpp"
#include "core/fabric_guard.hpp"
#include "gcode/flaw3d.hpp"
#include "host/rig.hpp"
#include "host/slicer.hpp"

using namespace offramps;

namespace {

gcode::Program part() {
  host::SliceProfile profile;
  host::CubeSpec cube{.size_x_mm = 10, .size_y_mm = 10, .height_mm = 3,
                      .center_x_mm = 110, .center_y_mm = 100};
  return host::slice_cube(cube, profile);
}

}  // namespace

int main(int argc, char** argv) {
  core::cli::Parser().parse_or_exit(
      argc, argv, 1, "usage: standalone_guard (takes no arguments)\n");
  // A verified golden run, captured once, flashed into the fabric.
  std::printf("[setup] capturing golden model for the fabric guard...\n");
  host::RigOptions gopt;
  gopt.firmware.jitter_seed = 1;
  host::Rig golden_rig(gopt);
  const host::RunResult golden_run = golden_rig.run(part());
  const core::Capture& golden = golden_run.capture;
  std::printf("[setup] %zu transactions stored in fabric memory "
              "(%zu bytes of BRAM)\n\n",
              golden.size(), golden.size() * 16);

  struct Job {
    const char* name;
    gcode::Program program;
    std::uint64_t seed;
  };
  const Job jobs[] = {
      {"night shift #1 (clean)", part(), 11},
      {"night shift #2 (tampered: 15% starvation)",
       gcode::flaw3d::apply_reduction(part(), {.factor = 0.85}), 22},
      {"night shift #3 (clean)", part(), 33},
  };

  for (const Job& job : jobs) {
    host::RigOptions options;
    options.firmware.jitter_seed = job.seed;
    host::Rig rig(options);
    core::FabricGuard guard(rig.board().fpga(), golden);
    const host::RunResult r = rig.run(job.program);
    if (guard.alarmed()) {
      std::printf("%-44s ALARM at transaction %u -> safe stop "
                  "(motors freed, heaters cut); %.1f mm of filament "
                  "spent vs %.1f golden\n",
                  job.name, guard.alarm_at_index(),
                  r.part.total_filament_mm,
                  golden_run.part.total_filament_mm);
    } else {
      std::printf("%-44s completed clean (%zu transactions, "
                  "flow %.3f)\n",
                  job.name, r.capture.size(), r.flow_ratio());
    }
  }

  std::printf(
      "\nNo host computer took part: comparison, alarm, and machine\n"
      "shutdown all happened inside the intermediary - the autonomy the\n"
      "paper lists as future work for unattended printers.\n");
  return 0;
}
