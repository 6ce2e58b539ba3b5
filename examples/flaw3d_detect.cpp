// Offline Flaw3D detection workflow (paper section V-D), including the
// capture-file round trip: captures are exported to the Figure 4 CSV
// format, re-loaded (as the paper's Python tool would), and compared.
//
// Usage: flaw3d_detect [reduction_factor]
//   e.g. flaw3d_detect 0.9
// A factor outside (0, 1], or any other argument, exits 2.
#include <cstdio>
#include <string>

#include "core/cli.hpp"
#include "detect/compare.hpp"
#include "gcode/flaw3d.hpp"
#include "gcode/stats.hpp"
#include "host/rig.hpp"
#include "host/slicer.hpp"

using namespace offramps;

int main(int argc, char** argv) {
  double factor = 0.9;
  core::cli::Parser args;
  args.positive("FACTOR", factor, 1.0);
  args.parse_or_exit(argc, argv, 1,
                     "usage: flaw3d_detect [FACTOR]  (reduction factor in "
                     "(0, 1], default 0.9)\n");

  host::SliceProfile profile;
  host::CubeSpec cube{.size_x_mm = 10, .size_y_mm = 10, .height_mm = 3,
                      .center_x_mm = 110, .center_y_mm = 100};
  const gcode::Program clean = host::slice_cube(cube, profile);

  // Mutate the g-code the way the Flaw3D bootloader would.
  gcode::flaw3d::MutationReport mutation;
  const gcode::Program dirty =
      gcode::flaw3d::apply_reduction(clean, {.factor = factor}, &mutation);
  std::printf("mutated %llu of %llu extrusion-relevant moves "
              "(%.1f mm -> %.1f mm commanded filament)\n",
              static_cast<unsigned long long>(mutation.moves_modified),
              static_cast<unsigned long long>(mutation.moves_seen),
              mutation.e_in_mm, mutation.e_out_mm);

  // Print both and export the captures as CSV (the OFFRAMPS host-side
  // artifact format).
  host::RigOptions gopt;
  gopt.firmware.jitter_seed = 1;
  host::Rig golden_rig(gopt);
  const host::RunResult golden = golden_rig.run(clean);

  host::RigOptions topt;
  topt.firmware.jitter_seed = 2;
  host::Rig trojan_rig(topt);
  const host::RunResult trojaned = trojan_rig.run(dirty);

  const std::string golden_csv = golden.capture.to_csv();
  const std::string trojan_csv = trojaned.capture.to_csv();
  std::printf("golden capture: %zu bytes of CSV; trojaned: %zu bytes\n",
              golden_csv.size(), trojan_csv.size());

  // Reload from CSV - the same path an operator archiving golden models
  // would use - then run the detector.
  core::Capture golden_loaded = core::Capture::from_csv(golden_csv, "golden");
  core::Capture trojan_loaded =
      core::Capture::from_csv(trojan_csv, "suspect");
  // CSV carries no final-count sideband; re-attach the live finals the
  // way the capture tool stores them alongside.
  golden_loaded.final_counts = golden.capture.final_counts;
  trojan_loaded.final_counts = trojaned.capture.final_counts;

  const detect::Report report =
      detect::compare(golden_loaded, trojan_loaded);
  std::printf("\n--- detection tool output ---\n%s",
              report.to_string().c_str());
  return report.trojan_likely ? 0 : 1;
}
