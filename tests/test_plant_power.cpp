// Tests for the power-delivery model and brown-out behaviour (the attack
// class the paper's Limitations section names but does not explore).
#include <gtest/gtest.h>

#include "detect/compare.hpp"
#include "host/rig.hpp"
#include "host/slicer.hpp"
#include "plant/power.hpp"

namespace offramps::plant {
namespace {

TEST(PowerRail, TracksVoltageAndMinimum) {
  PowerRail rail("24V", 24.0);
  EXPECT_DOUBLE_EQ(rail.volts(), 24.0);
  EXPECT_DOUBLE_EQ(rail.level(), 1.0);
  rail.set_volts(18.0);
  EXPECT_DOUBLE_EQ(rail.level(), 0.75);
  rail.restore();
  EXPECT_DOUBLE_EQ(rail.volts(), 24.0);
  EXPECT_DOUBLE_EQ(rail.min_seen_v(), 18.0);
}

TEST(PowerRail, ListenersFireOnChange) {
  PowerRail rail("5V", 5.0);
  double seen = 0.0;
  rail.on_change([&](double v) { seen = v; });
  rail.set_volts(3.0);
  EXPECT_DOUBLE_EQ(seen, 3.0);
}

struct IntegrityFixture : ::testing::Test {
  PowerRail motor{"24V", 24.0};
  PowerRail logic{"5V", 5.0};
  PowerIntegrity power{motor, logic};
};

TEST_F(IntegrityFixture, HealthyRailNeverSkips) {
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(power.step_lost());
  EXPECT_DOUBLE_EQ(power.heater_derate(), 1.0);
  EXPECT_FALSE(power.mcu_brownout());
}

TEST_F(IntegrityFixture, HeaterDeratesQuadratically) {
  motor.set_volts(12.0);  // half voltage
  EXPECT_NEAR(power.heater_derate(), 0.25, 1e-9);
}

TEST_F(IntegrityFixture, DeepSagStallsCompletely) {
  motor.set_volts(24.0 * 0.4);  // below stall level (0.5)
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(power.step_lost());
}

TEST_F(IntegrityFixture, PartialSagSkipsFractionally) {
  motor.set_volts(24.0 * 0.625);  // midway between skip and stall
  int lost = 0;
  for (int i = 0; i < 2000; ++i) lost += power.step_lost() ? 1 : 0;
  EXPECT_GT(lost, 700);   // ~50% expected
  EXPECT_LT(lost, 1300);
}

TEST_F(IntegrityFixture, LogicBrownoutThreshold) {
  logic.set_volts(4.0);  // 80%: fine
  EXPECT_FALSE(power.mcu_brownout());
  logic.set_volts(3.0);  // 60%: reset territory
  EXPECT_TRUE(power.mcu_brownout());
}

// --- End to end through the rig ----------------------------------------------

gcode::Program object() {
  host::SliceProfile profile;
  host::CubeSpec cube{.size_x_mm = 8, .size_y_mm = 8, .height_mm = 2.5,
                      .center_x_mm = 110, .center_y_mm = 100};
  return host::slice_cube(cube, profile);
}

TEST(Brownout, MotorRailSagSkipsStepsAndShiftsPart) {
  host::RigOptions options;
  options.brownout = host::BrownoutScenario{
      .rail = host::BrownoutScenario::Rail::kMotor,
      .start_s = 70.0,  // mid-print (after heat-up + homing)
      .duration_s = 3.0,
      .sag_to_fraction = 0.6};
  host::Rig rig(options);
  const host::RunResult r = rig.run(object());
  EXPECT_TRUE(r.finished);  // open loop: the firmware never knows
  const auto skips = r.undervolt_skips[0] + r.undervolt_skips[1] +
                     r.undervolt_skips[2] + r.undervolt_skips[3];
  EXPECT_GT(skips, 100u);
  // Physical displacement: the motors fell behind the commanded counts.
  EXPECT_NE(r.motor_steps[0] + r.motor_steps[1],
            r.commanded_steps[0] + r.commanded_steps[1]);
  // The step-count capture is firmware-side: it looks PERFECT.  This is
  // the paper's acknowledged detection gap for power attacks.
  host::Rig golden_rig;
  const host::RunResult golden = golden_rig.run(object());
  EXPECT_FALSE(
      detect::compare(golden.capture, r.capture).trojan_likely);
}

TEST(Brownout, LogicRailSagKillsTheController) {
  host::RigOptions options;
  options.brownout = host::BrownoutScenario{
      .rail = host::BrownoutScenario::Rail::kLogic,
      .start_s = 70.0,
      .duration_s = 1.0,
      .sag_to_fraction = 0.5};
  host::Rig rig(options);
  const host::RunResult r = rig.run(object());
  EXPECT_FALSE(r.finished);
  EXPECT_TRUE(r.killed);
  EXPECT_NE(r.kill_reason.find("brown-out"), std::string::npos);
}

TEST(Brownout, HealthyRunIsUnaffectedByPowerIntegrity) {
  // The under-voltage model must be inert at nominal voltage: identical
  // finals with and without a (non-firing) brownout hook.
  host::Rig a, b;
  const host::RunResult ra = a.run(object());
  const host::RunResult rb = b.run(object());
  EXPECT_EQ(ra.capture.final_counts, rb.capture.final_counts);
  EXPECT_EQ(ra.undervolt_skips[0], 0u);
}

TEST(Brownout, UndervoltSlowsHeating) {
  // Sag the motor/heater rail during heat-up: the PID fights a weaker
  // heater, delaying (or failing) temperature arrival.
  host::RigOptions sag_opts;
  sag_opts.brownout = host::BrownoutScenario{
      .rail = host::BrownoutScenario::Rail::kMotor,
      .start_s = 5.0,
      .duration_s = 25.0,
      .sag_to_fraction = 0.7};  // 49% heater power
  host::Rig sagged(sag_opts);
  const host::RunResult rs = sagged.run(object());

  host::Rig healthy;
  const host::RunResult rh = healthy.run(object());
  // Both eventually finish, but the sagged run took longer in total.
  EXPECT_TRUE(rh.finished);
  EXPECT_TRUE(rs.finished);
  EXPECT_GT(rs.sim_seconds, rh.sim_seconds + 5.0);
}

}  // namespace
}  // namespace offramps::plant
