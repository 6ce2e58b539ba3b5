// Failure-injection tests: non-Trojan faults the stack must survive (or
// fail safely under) - stuck endstops, dying sensors mid-print, stalled
// hosts, and live jumper changes.
#include <gtest/gtest.h>

#include "detect/compare.hpp"
#include "helpers.hpp"
#include "host/rig.hpp"
#include "host/slicer.hpp"

namespace offramps {
namespace {

using offramps::test::DirectStack;

gcode::Program object() {
  host::SliceProfile profile;
  host::CubeSpec cube{.size_x_mm = 8, .size_y_mm = 8, .height_mm = 2,
                      .center_x_mm = 110, .center_y_mm = 100};
  return host::slice_cube(cube, profile);
}

TEST(FailureInjection, EndstopStuckClosedBeforeHoming) {
  // A shorted X endstop: homing "succeeds" instantly without motion, so
  // the firmware believes X=0 while the carriage sits at its power-on
  // position.  The print completes but the part lands displaced - a
  // classic silent mechanical fault.
  DirectStack s;
  auto& x_stop = s.bank.min_endstop(sim::Axis::kX);
  x_stop.set(true);  // stuck switch...
  x_stop.on_falling([&x_stop](sim::Tick) {
    x_stop.set(true);  // ...that no amount of carriage motion releases
  });
  s.enqueue("G28 X\nG28 Y\n");
  EXPECT_TRUE(s.run());
  EXPECT_TRUE(s.firmware.homed(sim::Axis::kX));
  // The carriage never travelled to the real minimum: only the back-off
  // bump moved it (+3 mm from the 60 mm power-on position).
  EXPECT_NEAR(s.printer.axis(sim::Axis::kX).position_mm(), 63.0, 0.5);
  // Y homed normally.
  EXPECT_NEAR(s.printer.axis(sim::Axis::kY).position_mm(), 0.0, 0.2);
}

TEST(FailureInjection, ThermistorOpensMidPrint) {
  // The hotend thermistor wire breaks mid-print: the ADC rails and the
  // firmware must kill with MINTEMP immediately (Marlin behaviour).
  host::Rig rig;
  // The plant republishes the ADC every 10 ms, so a broken wire must be
  // re-asserted persistently, like the real open circuit it is.
  std::function<void()> open_circuit = [&rig, &open_circuit] {
    rig.board().ramps_side().analog(sim::APin::kThermHotend).set(1023.0);
    if (!rig.firmware().killed()) {
      rig.scheduler().schedule_in(sim::ms(5), open_circuit);
    }
  };
  rig.scheduler().schedule_at(sim::seconds(80), open_circuit);
  const host::RunResult r = rig.run(object());
  EXPECT_TRUE(r.killed);
  EXPECT_NE(r.kill_reason.find("MINTEMP"), std::string::npos);
  EXPECT_FALSE(r.capture.print_completed);
}

TEST(FailureInjection, HeaterCartridgeFallsOutDuringHeatup) {
  // Zero heater power from the start: "Heating failed" within the watch
  // period, long before any motion.
  host::RigOptions options;
  options.printer.hotend.power_w = 0.0;
  host::Rig rig(options);
  const host::RunResult r = rig.run(object());
  EXPECT_TRUE(r.killed);
  EXPECT_NE(r.kill_reason.find("Heating failed"), std::string::npos);
  EXPECT_FALSE(r.part.any_material);
}

TEST(FailureInjection, HostStallsMidPrintThenResumes) {
  // The host goes quiet for 30 simulated seconds mid-print, modelled as
  // a dwell at the program's midpoint.  The firmware idles at the last
  // commanded position and resumes cleanly; final geometry is unaffected.
  const gcode::Program program = object();
  host::Rig reference_rig;
  const host::RunResult ref = reference_rig.run(program);

  gcode::Program stalled = program;
  stalled.insert(stalled.begin() + static_cast<std::ptrdiff_t>(
                                       stalled.size() / 2),
                 *gcode::parse_line("G4 S30"));
  host::Rig rig;
  const host::RunResult r = rig.run(stalled);
  EXPECT_TRUE(r.finished);
  EXPECT_EQ(r.capture.final_counts, ref.capture.final_counts);
  EXPECT_GT(r.sim_seconds, ref.sim_seconds + 25.0);
}

TEST(FailureInjection, RouteSwitchToDirectMidPrintFreezesCounts) {
  // Pulling the jumpers to bypass mid-print (a tamper-with-the-defense
  // scenario): the print continues unharmed, but the FPGA loses its
  // signal taps - the reporter keeps transmitting frozen counts, which
  // the golden comparison flags immediately.
  host::Rig golden_rig;
  const host::RunResult golden = golden_rig.run(object());

  host::Rig rig;
  rig.scheduler().schedule_at(sim::seconds(80), [&rig] {
    rig.board().set_route(core::RouteMode::kDirect);
  });
  const host::RunResult r = rig.run(object());
  EXPECT_TRUE(r.finished);
  // Counts froze at the moment of the switch...
  EXPECT_LT(r.capture.final_counts[3], golden.capture.final_counts[3]);
  // ...and the detector notices the divergence.
  const detect::Report rep = detect::compare(golden.capture, r.capture);
  EXPECT_TRUE(rep.trojan_likely);
  EXPECT_GT(rep.mismatch_count(), 0u);
}

TEST(FailureInjection, EmptyProgramFinishesImmediately) {
  host::Rig rig;
  const host::RunResult r = rig.run({});
  EXPECT_TRUE(r.finished);
  EXPECT_TRUE(r.capture.empty());
  EXPECT_FALSE(r.part.any_material);
}

TEST(FailureInjection, CommentsAndBlankLinesOnlyProgram) {
  host::Rig rig;
  const host::RunResult r = rig.run(gcode::parse_program(
      "; header comment\n\n; another comment\n   \n"));
  EXPECT_TRUE(r.finished);
}

TEST(FailureInjection, MovesWithoutHomingStayInImaginaryCoordinates) {
  // Hosts sometimes send moves before G28: the firmware executes them
  // relative to the power-on position (no soft endstops yet).
  DirectStack s;
  s.enqueue("G1 X10 F4800\n");  // logical 0 -> 10: +10 mm physical
  EXPECT_TRUE(s.run());
  EXPECT_NEAR(s.printer.axis(sim::Axis::kX).position_mm(), 70.0, 0.2);
}

TEST(FailureInjection, CounterfeitDriverMicrostepMismatch) {
  // The paper's §III-A warns about counterfeit RAMPS clones with
  // "undesirable changes".  A classic one: drivers shipped with the
  // wrong microstep default.  The plant really moves at 8x while the
  // firmware believes 16x - every dimension doubles.
  host::RigOptions options;
  options.printer.steps_per_mm = {50.0, 50.0, 200.0, 140.0};  // 8x
  // Larger frame so the doubled part still fits (the soft endstops
  // clamp in firmware coordinates, which are oblivious to the scale).
  options.printer.axis_length_mm = {500.0, 420.0, 420.0};
  host::Rig rig(options);
  const host::RunResult r = rig.run(object());
  EXPECT_TRUE(r.finished);
  // The 8 mm cube came out 16 mm.
  EXPECT_NEAR(r.part.bbox_width_mm, 16.0, 0.6);
  EXPECT_NEAR(r.part.bbox_depth_mm, 16.0, 0.6);
  // And the capture is clean: commanded counts match golden exactly, so
  // step-count detection cannot see a counterfeit *driver board* - only
  // physical inspection of the part can.
  host::Rig golden_rig;
  const host::RunResult golden = golden_rig.run(object());
  EXPECT_EQ(r.capture.final_counts, golden.capture.final_counts);
}

TEST(FailureInjection, KillDuringHomingIsClean) {
  DirectStack s;
  s.enqueue("G28\n");
  s.sched.schedule_at(sim::ms(500), [&s] { s.firmware.kill("test kill"); });
  EXPECT_FALSE(s.run());
  EXPECT_TRUE(s.firmware.killed());
  EXPECT_FALSE(s.firmware.stepper().busy());
  for (const auto a : sim::kAllAxes) {
    EXPECT_TRUE(s.bank.enable(a).level()) << "driver left enabled";
  }
}

}  // namespace
}  // namespace offramps
