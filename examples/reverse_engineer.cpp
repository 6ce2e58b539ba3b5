// Reverse engineering a printed part from its control signals.
//
// The paper's Discussion points out that direct access to the step
// streams enables "even reverse-engineering printed parts from their
// control signals" - the IP-exfiltration scenario its related work
// approaches through lossy side channels (acoustic, power, optical).
// Here the OFFRAMPS capture is all an attacker needs: this example prints
// a part, takes only the UART capture (16 bytes per 0.1 s), and recovers
// the part's geometry from it.
#include <cstdio>

#include "core/cli.hpp"
#include "detect/reconstruct.hpp"
#include "host/rig.hpp"
#include "host/slicer.hpp"

using namespace offramps;

int main(int argc, char** argv) {
  core::cli::Parser().parse_or_exit(
      argc, argv, 1, "usage: reverse_engineer (takes no arguments)\n");
  // Victim prints a cylinder (say, a proprietary bushing).
  host::SliceProfile profile;
  host::CylinderSpec spec{.diameter_mm = 16, .height_mm = 3, .facets = 48,
                          .center_x_mm = 110, .center_y_mm = 100};
  host::Rig rig;
  const host::RunResult r = rig.run(host::slice_cylinder(spec, profile));
  if (!r.finished) {
    std::fprintf(stderr, "print failed: %s\n", r.kill_reason.c_str());
    return 1;
  }
  std::printf("victim print complete; attacker holds %zu transactions "
              "(%zu bytes on the wire)\n\n",
              r.capture.size(), r.capture.size() * 16);

  // Attacker reconstructs from the capture alone.
  const detect::ReconstructedPart part =
      detect::reconstruct_part(r.capture);
  std::printf("reconstructed: %zu layers, %.2f mm tall, footprint "
              "%.1f x %.1f mm, %.0f mm of extrusion path, %.1f mm "
              "filament\n",
              part.layers.size(), part.height_mm, part.bbox_width_mm,
              part.bbox_depth_mm, part.total_path_mm,
              part.total_filament_mm);
  std::printf("ground truth:  %zu layers, footprint %.1f x %.1f mm, "
              "%.1f mm filament\n\n",
              r.part.layer_count, r.part.bbox_width_mm,
              r.part.bbox_depth_mm, r.part.total_filament_mm);

  const std::size_t mid = part.layers.size() / 2;
  std::printf("layer %zu (z=%.2f mm) as recovered from the step counts:\n%s",
              mid, part.layers[mid].z_mm,
              part.ascii_layer(mid, 48).c_str());

  std::printf(
      "\nNo camera, microphone, or power probe involved: the control\n"
      "signals alone leak the full part geometry, which is why the paper\n"
      "treats signal-level access as both an analysis tool and a threat.\n");
  return 0;
}
