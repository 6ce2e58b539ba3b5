// Trojan study: the OFFRAMPS as an *attack* platform (paper section IV).
//
// Prints the same part three times - golden, with the T2 extrusion-
// masking Trojan, and with T2 being toggled on and off mid-print through
// the Trojan Control Module's multiplexer - and compares the physical
// outcome of each.  Demonstrates:
//   * arming Trojans from a TrojanSuiteConfig,
//   * homing-triggered activation,
//   * dynamic enable/disable (the paper's multiplexed control), and
//   * part-quality metrics as the evidence channel.
#include <cstdio>

#include "core/cli.hpp"
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

void describe(const char* label, const host::RunResult& r) {
  std::printf("%-22s flow %.3f  filament %6.1f mm  layer shift %.3f mm  %s\n",
              label, r.flow_ratio(), r.part.total_filament_mm,
              r.part.max_layer_shift_mm,
              r.finished ? "completed" : r.kill_reason.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  core::cli::Parser().parse_or_exit(
      argc, argv, 1, "usage: trojan_study (takes no arguments)\n");
  const gcode::Program program = part();

  // 1. Golden reference.
  host::Rig golden_rig;
  describe("golden", golden_rig.run(program));

  // 2. T2 armed for the whole print: half the extruder pulses vanish
  //    between the Arduino and the RAMPS (Flaw3D-class effect, but done
  //    in hardware, invisible to the firmware).
  host::RigOptions t2_options;
  t2_options.trojans.t2 = core::T2Config{.keep_ratio = 0.5};
  host::Rig t2_rig(t2_options);
  describe("T2 (50% mask)", t2_rig.run(program));

  // 3. Same Trojan, but the control module toggles it per layer: odd
  //    layers print starved, even layers print clean - the kind of
  //    selective, hard-to-diagnose defect a malicious intermediary can
  //    produce.
  host::RigOptions toggle_options;
  toggle_options.trojans.t2 = core::T2Config{.keep_ratio = 0.5};
  host::Rig toggle_rig(toggle_options);
  toggle_rig.board().fpga().layers().on_layer(
      [&toggle_rig](std::uint64_t layer) {
        if (auto* t2 = toggle_rig.board().trojans().find(core::TrojanId::kT2)) {
          t2->set_enabled(layer % 2 == 1);
        }
      });
  describe("T2 toggled per layer", toggle_rig.run(program));

  std::printf(
      "\nNote how the firmware reports success in every case: the attack\n"
      "lives entirely between the controller and the drivers, exactly the\n"
      "blind spot the OFFRAMPS platform was built to study.\n");
  return 0;
}
