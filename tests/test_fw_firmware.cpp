// Integration tests for the firmware facade on a directly-wired stack
// (no OFFRAMPS board): command dispatch, homing, positioning, modal
// state, safety interlocks, and end-of-print behaviour.
#include <gtest/gtest.h>

#include "helpers.hpp"
#include "sim/trace.hpp"

namespace offramps::fw {
namespace {

using offramps::test::DirectStack;
using offramps::test::preamble;

TEST(Firmware, StartsIdleAndFinishesEmptyQueue) {
  DirectStack s;
  EXPECT_EQ(s.firmware.state(), FwState::kIdle);
  EXPECT_TRUE(s.run());
  EXPECT_EQ(s.firmware.state(), FwState::kFinished);
}

TEST(Firmware, DoubleStartThrows) {
  DirectStack s;
  s.firmware.start();
  EXPECT_THROW(s.firmware.start(), offramps::Error);
}

TEST(Firmware, HomingZerosAxesAndSetsFlags) {
  DirectStack s;
  s.enqueue("G28\n");
  EXPECT_TRUE(s.run());
  EXPECT_TRUE(s.firmware.all_homed());
  EXPECT_NEAR(s.firmware.logical_mm(sim::Axis::kX), 0.0, 0.01);
  EXPECT_NEAR(s.firmware.logical_mm(sim::Axis::kY), 0.0, 0.01);
  EXPECT_NEAR(s.firmware.logical_mm(sim::Axis::kZ), 0.0, 0.01);
  // The physical carriages really are at their minimums.
  EXPECT_NEAR(s.printer.axis(sim::Axis::kX).position_mm(), 0.0, 0.15);
  EXPECT_NEAR(s.printer.axis(sim::Axis::kY).position_mm(), 0.0, 0.15);
}

TEST(Firmware, PartialHomingOnlyNamedAxes) {
  DirectStack s;
  s.enqueue("G28 X\n");
  EXPECT_TRUE(s.run());
  EXPECT_TRUE(s.firmware.homed(sim::Axis::kX));
  EXPECT_FALSE(s.firmware.homed(sim::Axis::kY));
  EXPECT_FALSE(s.firmware.all_homed());
}

TEST(Firmware, HomingFailsWithoutEndstopsKillsMachine) {
  // Disconnect the plant by using an absurdly long axis: the firmware's
  // bump distance never reaches the switch.
  plant::PrinterParams params;
  params.initial_position_mm = {240.0, 200.0, 200.0};
  fw::Config config;
  config.axis_length_mm = {100.0, 100.0, 100.0};  // fw believes 100 mm...
  params.axis_length_mm = {2000.0, 2000.0, 2000.0};  // ...axis is 2 m
  DirectStack s(config, params);
  s.enqueue("G28 X\n");
  EXPECT_FALSE(s.run());
  EXPECT_TRUE(s.firmware.killed());
  EXPECT_NE(s.firmware.kill_reason().find("Homing failed"),
            std::string::npos);
}

TEST(Firmware, AbsoluteMoveReachesTarget) {
  DirectStack s;
  s.enqueue("G28\nG1 X50 Y40 F4800\n");
  EXPECT_TRUE(s.run());
  EXPECT_NEAR(s.firmware.logical_mm(sim::Axis::kX), 50.0, 0.01);
  EXPECT_NEAR(s.printer.axis(sim::Axis::kX).position_mm(), 50.0, 0.15);
  EXPECT_NEAR(s.printer.axis(sim::Axis::kY).position_mm(), 40.0, 0.15);
}

TEST(Firmware, RelativeMoves) {
  DirectStack s;
  s.enqueue("G28\nG91\nG1 X10 F4800\nG1 X10 F4800\nG90\n");
  EXPECT_TRUE(s.run());
  EXPECT_NEAR(s.firmware.logical_mm(sim::Axis::kX), 20.0, 0.01);
}

TEST(Firmware, SoftEndstopsClampAfterHoming) {
  DirectStack s;  // X length 250
  s.enqueue("G28\nG1 X9999 F12000\n");
  EXPECT_TRUE(s.run());
  EXPECT_NEAR(s.firmware.logical_mm(sim::Axis::kX), 250.0, 0.01);
  EXPECT_NEAR(s.printer.axis(sim::Axis::kX).position_mm(), 250.0, 0.2);
}

TEST(Firmware, G92RebasesLogicalPosition) {
  DirectStack s;
  s.enqueue("G28\nG1 X50 F4800\nG92 X0\nG1 X10 F4800\n");
  EXPECT_TRUE(s.run());
  EXPECT_NEAR(s.firmware.logical_mm(sim::Axis::kX), 10.0, 0.01);
  // Physically at 60 mm: 50 + 10.
  EXPECT_NEAR(s.printer.axis(sim::Axis::kX).position_mm(), 60.0, 0.15);
}

TEST(Firmware, ColdExtrusionIsBlocked) {
  DirectStack s;
  s.enqueue("G28\nG92 E0\nG1 X20 E5 F1200\n");  // hotend never heated
  EXPECT_TRUE(s.run());
  EXPECT_EQ(s.firmware.cold_extrusion_blocks(), 1u);
  EXPECT_EQ(s.printer.motor(sim::Axis::kE).position(), 0);
  // The motion component still happened.
  EXPECT_NEAR(s.printer.axis(sim::Axis::kX).position_mm(), 20.0, 0.15);
}

TEST(Firmware, HotExtrusionDrivesEMotor) {
  DirectStack s;
  s.enqueue(preamble() + "G1 X20 E5 F1200\n");
  EXPECT_TRUE(s.run());
  EXPECT_EQ(s.firmware.cold_extrusion_blocks(), 0u);
  EXPECT_NEAR(s.printer.extruder().filament_mm(), 5.0, 0.02);
}

TEST(Firmware, ColdExtrusionPreventionCanBeDisabled) {
  fw::Config config;
  config.prevent_cold_extrusion = false;
  DirectStack s(config);
  s.enqueue("G28\nG92 E0\nG1 X20 E5 F1200\n");
  EXPECT_TRUE(s.run());
  EXPECT_NEAR(s.printer.extruder().filament_mm(), 5.0, 0.02);
}

TEST(Firmware, FlowMultiplierScalesE) {
  DirectStack s;
  s.enqueue(preamble() + "M221 S50\nG1 X20 E4 F1200\n");
  EXPECT_TRUE(s.run());
  EXPECT_NEAR(s.printer.extruder().filament_mm(), 2.0, 0.02);
}

TEST(Firmware, FeedrateMultiplierChangesDuration) {
  DirectStack fast, slow;
  const std::string job = "G28\nM220 S200\nG1 X100 F3000\n";
  const std::string job_slow = "G28\nM220 S50\nG1 X100 F3000\n";
  fast.enqueue(job);
  slow.enqueue(job_slow);
  EXPECT_TRUE(fast.run());
  EXPECT_TRUE(slow.run());
  EXPECT_LT(fast.sched.now(), slow.sched.now());
}

TEST(Firmware, DwellTakesRequestedTime) {
  DirectStack s;
  s.enqueue("G4 P1500\n");
  EXPECT_TRUE(s.run());
  EXPECT_GE(s.sched.now(), sim::ms(1500));
  EXPECT_LT(s.sched.now(), sim::ms(1700));
}

TEST(Firmware, M109WaitsForTemperature) {
  DirectStack s;
  s.enqueue("M104 S210\nM109 S210\n");
  EXPECT_TRUE(s.run());
  EXPECT_NEAR(s.firmware.thermal().current(Heater::kHotend), 210.0, 5.0);
  EXPECT_GT(s.sched.now(), sim::seconds(20));  // real heat-up took time
}

TEST(Firmware, FanControlSetsDuty) {
  DirectStack s;
  s.enqueue("M106 S127\n");
  EXPECT_TRUE(s.run());
  EXPECT_NEAR(s.firmware.fan_duty(), 127.0 / 255.0, 0.01);
  DirectStack off;
  off.enqueue("M106 S200\nM107\n");
  EXPECT_TRUE(off.run());
  EXPECT_DOUBLE_EQ(off.firmware.fan_duty(), 0.0);
}

TEST(Firmware, MotorsOffReleasesDrivers) {
  DirectStack s;
  s.enqueue("G28\nM84\n");
  EXPECT_TRUE(s.run());
  for (const auto a : sim::kAllAxes) {
    EXPECT_TRUE(s.bank.enable(a).level()) << sim::axis_name(a);
  }
}

TEST(Firmware, EmergencyStopKillsEverything) {
  DirectStack s;
  s.enqueue("M104 S210\nM112\nG1 X50 F4800\n");
  EXPECT_FALSE(s.run());
  EXPECT_TRUE(s.firmware.killed());
  EXPECT_EQ(s.firmware.kill_reason(), "M112 emergency stop");
  EXPECT_EQ(s.firmware.queue_depth(), 0u);  // queue flushed
  EXPECT_DOUBLE_EQ(s.firmware.thermal().target(Heater::kHotend), 0.0);
}

TEST(Firmware, UnknownCommandsAreCountedAndSkipped) {
  DirectStack s;
  s.enqueue("M999\nG123\nT0\nG28 X\n");
  EXPECT_TRUE(s.run());
  EXPECT_EQ(s.firmware.unknown_commands(), 3u);
  EXPECT_TRUE(s.firmware.homed(sim::Axis::kX));
}

TEST(Firmware, ReportsTemperatureAndPosition) {
  // No host reads the console: M105 and M114 are accepted and finish at
  // once, like M17 and M84.
  DirectStack s;
  s.enqueue("G28\nM105\nM114\n");
  EXPECT_TRUE(s.run());
  EXPECT_EQ(s.firmware.unknown_commands(), 0u);
  EXPECT_EQ(s.firmware.state(), FwState::kFinished);
}

TEST(Firmware, StepSignalsStayInPaperEnvelope) {
  // All control signals the paper measured ran below 20 kHz with >= 1 us
  // pulses; verify on a representative print move mix.
  DirectStack s;
  sim::TraceRecorder x(s.bank.step(sim::Axis::kX), false);
  sim::TraceRecorder e(s.bank.step(sim::Axis::kE), false);
  s.enqueue(preamble() +
            "G1 X100 Y50 E8 F4800\nG1 X10 F10800\nG1 E6 F2100\n");
  EXPECT_TRUE(s.run());
  EXPECT_LT(x.max_frequency_hz(), 20'000.0);
  EXPECT_LT(e.max_frequency_hz(), 20'000.0);
  EXPECT_GE(x.min_high_pulse(), sim::us(1));
  EXPECT_GE(e.min_high_pulse(), sim::us(1));
}

}  // namespace
}  // namespace offramps::fw
