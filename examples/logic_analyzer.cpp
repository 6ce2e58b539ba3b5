// Logic analyzer: dump the signals the OFFRAMPS sees as a VCD waveform.
//
// The paper describes the FPGA acting as "a rudimentary 'digital logic
// analyzer' for the control signals passing between the Arduino and
// RAMPS boards".  This example records the firmware-side nets during the
// start of a print and writes an IEEE 1364 VCD file you can open in
// GTKWave:
//
//   ./logic_analyzer > print_start.vcd && gtkwave print_start.vcd
#include <cstdio>

#include "core/cli.hpp"
#include "host/rig.hpp"
#include "host/slicer.hpp"
#include "sim/vcd.hpp"

using namespace offramps;

int main(int argc, char** argv) {
  core::cli::Parser().parse_or_exit(
      argc, argv, 1, "usage: logic_analyzer (takes no arguments)\n");
  host::SliceProfile profile;
  host::CubeSpec cube{.size_x_mm = 8, .size_y_mm = 8, .height_mm = 0.5,
                      .center_x_mm = 110, .center_y_mm = 100};
  host::Rig rig;

  // Tap every interesting net on the Arduino side plus the endstop
  // returns and the OFFRAMPS host link.
  sim::VcdRecorder vcd(rig.scheduler());
  auto& ard = rig.board().arduino_side();
  for (const auto axis : sim::kAllAxes) {
    vcd.add(ard.step(axis));
    vcd.add(ard.dir(axis));
    vcd.add(ard.enable(axis));
  }
  vcd.add(ard.wire(sim::Pin::kHotendHeat));
  vcd.add(ard.wire(sim::Pin::kFan));
  for (const auto axis : {sim::Axis::kX, sim::Axis::kY, sim::Axis::kZ}) {
    vcd.add(ard.min_endstop(axis));
  }
  vcd.add(rig.board().fpga().uart_tx_line(), "OFFRAMPS_UART_TX");

  const host::RunResult r = rig.run(host::slice_cube(cube, profile));
  std::fprintf(stderr,
               "print %s; captured %zu value changes on %zu channels\n",
               r.finished ? "finished" : "failed", vcd.events(),
               vcd.channels());

  std::fputs(vcd.render().c_str(), stdout);
  return r.finished ? 0 : 1;
}
