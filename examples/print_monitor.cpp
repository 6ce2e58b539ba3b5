// Print monitoring: the OFFRAMPS as a *defense* platform (paper section V).
//
// Step 1: a verified golden print is captured (in production this part
// would then pass destructive/non-destructive testing).
// Step 2: a fleet of production prints runs under continuous monitoring;
// one of them is built from Trojaned g-code.  The real-time monitor halts
// the compromised print as soon as its step counts leave the 5% envelope,
// saving machine time and material - the paper's "all parts are checked,
// not just a random subset" workflow.
#include <cstdio>
#include <vector>

#include "core/cli.hpp"
#include "detect/monitor.hpp"
#include "gcode/flaw3d.hpp"
#include "host/rig.hpp"
#include "host/slicer.hpp"

using namespace offramps;

namespace {

constexpr const char* kHalted =
    "print halted by OFFRAMPS real-time Trojan monitor";

gcode::Program part() {
  host::SliceProfile profile;
  host::CubeSpec cube{.size_x_mm = 10, .size_y_mm = 10, .height_mm = 3,
                      .center_x_mm = 110, .center_y_mm = 100};
  return host::slice_cube(cube, profile);
}

}  // namespace

int main(int argc, char** argv) {
  core::cli::Parser().parse_or_exit(
      argc, argv, 1, "usage: print_monitor (takes no arguments)\n");
  const gcode::Program program = part();

  // --- Step 1: capture and "verify" the golden part ------------------------
  std::printf("[1] capturing golden reference print...\n");
  host::RigOptions golden_options;
  golden_options.firmware.jitter_seed = 1;
  host::Rig golden_rig(golden_options);
  const host::RunResult golden = golden_rig.run(program);
  std::printf("    %zu transactions captured; part verified "
              "(%.1f mm filament, %zu layers)\n\n",
              golden.capture.size(), golden.part.total_filament_mm,
              golden.part.layer_count);

  // --- Step 2: production prints under continuous monitoring ---------------
  struct Job {
    const char* name;
    gcode::Program program;
    std::uint64_t seed;
  };
  const Job jobs[] = {
      {"unit-001 (clean)", program, 101},
      {"unit-002 (clean)", program, 202},
      {"unit-003 (SABOTAGED)",
       gcode::flaw3d::apply_reduction(program, {.factor = 0.85}), 303},
      {"unit-004 (clean)", program, 404},
  };

  std::printf("[2] production run, real-time monitoring active:\n");
  int caught = 0;
  for (const Job& job : jobs) {
    host::RigOptions options;
    options.firmware.jitter_seed = job.seed;
    host::Rig rig(options);
    detect::RealtimeMonitor monitor(rig.board().fpga().uart(),
                                    golden.capture);
    monitor.on_alarm([&rig](const std::vector<detect::Mismatch>&) {
      rig.firmware().kill(kHalted);
    });
    const host::RunResult r = rig.run(job.program);
    if (monitor.alarmed() && r.kill_reason == kHalted) {
      ++caught;
      const double saved =
          100.0 * (1.0 - static_cast<double>(r.capture.final_counts[3]) /
                             static_cast<double>(golden.capture
                                                     .final_counts[3]));
      std::printf("    %-24s HALTED at transaction %u of %zu "
                  "(~%.0f%% of material saved)\n",
                  job.name, monitor.alarmed_at_index(), golden.capture.size(),
                  saved);
    } else {
      std::printf("    %-24s completed clean (%zu transactions, "
                  "flow %.3f)\n",
                  job.name, r.capture.size(), r.flow_ratio());
    }
  }

  std::printf("\n%d sabotaged unit(s) intercepted mid-print.\n", caught);
  return caught == 1 ? 0 : 1;
}
