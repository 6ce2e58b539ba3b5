// End-to-end Trojan tests: each Table I Trojan run against a real print,
// verifying the physical effect the paper demonstrates with photographs.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/bytes.hpp"
#include "detect/compare.hpp"
#include "host/rig.hpp"
#include "host/slicer.hpp"

namespace offramps::host {
namespace {

gcode::Program test_cube() {
  SliceProfile profile;
  CubeSpec cube{.size_x_mm = 8, .size_y_mm = 8, .height_mm = 2.5,
                .center_x_mm = 110, .center_y_mm = 100};
  return slice_cube(cube, profile);
}

RunResult run_with(const core::TrojanSuiteConfig& trojans,
                   gcode::Program program = test_cube()) {
  RigOptions options;
  options.trojans = trojans;
  Rig rig(options);
  return rig.run(program);
}

TEST(TrojanT1, InjectsStepsAndShiftsLayers) {
  core::TrojanSuiteConfig cfg;
  cfg.t1 = core::T1Config{.period = sim::seconds(10),
                          .pulses_per_burst = 100};
  const RunResult r = run_with(cfg);
  EXPECT_TRUE(r.finished);  // part completes (PM Trojan, not DoS)
  // Extra steps reached the motors beyond what the firmware commanded.
  EXPECT_NE(r.motor_steps[0] + r.motor_steps[1],
            r.commanded_steps[0] + r.commanded_steps[1]);
  // The part shows a visible XY shift (paper: "extensive shift along
  // both axes").
  EXPECT_GT(r.part.max_layer_shift_mm, 0.4);
}

TEST(TrojanT2, HalvesExtrusionFlow) {
  core::TrojanSuiteConfig cfg;
  cfg.t2 = core::T2Config{.keep_ratio = 0.5};
  const RunResult r = run_with(cfg);
  EXPECT_TRUE(r.finished);
  EXPECT_NEAR(r.flow_ratio(), 0.5, 0.05);
  // Geometry (XY motion) untouched.
  EXPECT_EQ(r.motor_steps[0], r.commanded_steps[0]);
  EXPECT_LT(r.part.max_layer_shift_mm, 0.2);
}

TEST(TrojanT2, ArbitraryMaskRatio) {
  core::TrojanSuiteConfig cfg;
  cfg.t2 = core::T2Config{.keep_ratio = 0.8};
  const RunResult r = run_with(cfg);
  EXPECT_NEAR(r.flow_ratio(), 0.8, 0.05);
}

TEST(TrojanT3, OverExtrudesDuringYMoves) {
  core::TrojanSuiteConfig cfg;
  cfg.t3 = core::T3Config{.over_extrude = true, .y_steps_per_injection = 8};
  const RunResult r = run_with(cfg);
  EXPECT_TRUE(r.finished);
  EXPECT_GT(r.flow_ratio(), 1.02);  // extra material deposited
}

TEST(TrojanT3, UnderExtrudesDuringYMoves) {
  core::TrojanSuiteConfig cfg;
  cfg.t3 = core::T3Config{.over_extrude = false, .drop_fraction = 0.8};
  const RunResult r = run_with(cfg);
  EXPECT_TRUE(r.finished);
  EXPECT_LT(r.flow_ratio(), 0.95);
}

TEST(TrojanT4, ShiftsRandomLayers) {
  core::TrojanSuiteConfig cfg;
  cfg.t4 = core::T4Config{.layer_probability = 0.5, .shift_steps = 50};
  const RunResult r = run_with(cfg);
  EXPECT_TRUE(r.finished);
  EXPECT_GT(r.part.max_layer_shift_mm, 0.2);
  // Shifts accumulate randomly rather than uniformly: footprint drifts.
  EXPECT_GT(r.part.footprint_drift_mm, 0.1);
}

TEST(TrojanT5, OpensZGapsBetweenLayers) {
  core::TrojanSuiteConfig cfg;
  cfg.t5 = core::T5Config{.mode = core::T5Config::Mode::kEveryNLayers,
                          .every_n_layers = 3,
                          .shift_steps = 120};
  const RunResult r = run_with(cfg);
  EXPECT_TRUE(r.finished);
  // Nominal spacing is 0.25 mm; the Trojan adds 0.3 mm on some layers.
  EXPECT_GT(r.part.max_z_spacing_mm, 0.4);
  // Z motor saw more steps than commanded.
  EXPECT_GT(r.motor_steps[2], r.commanded_steps[2]);
}

TEST(TrojanT5, AtStartCausesAdhesionFailure) {
  core::TrojanSuiteConfig cfg;
  // Lift shortly after homing settles (during heat-up, well before any
  // material): firing at the exact homed instant no longer works -- see
  // AtHomedInstantIsAbsorbedByEndstopDebounce below.
  cfg.t5 = core::T5Config{.mode = core::T5Config::Mode::kAtStart,
                          .shift_steps = 400,  // a full millimeter up
                          .delay_after_homing_s = 1.0};
  const RunResult r = run_with(cfg);
  EXPECT_TRUE(r.finished);
  // First material lands ~1 mm above the nominal first layer.
  EXPECT_GT(r.part.first_layer_z_mm, 1.0);
}

TEST(TrojanT5, AtHomedInstantIsAbsorbedByEndstopDebounce) {
  // A Z lift injected at the very instant the homing detector fires races
  // the firmware's Z re-bump: the lift pulls the head off the switch
  // inside the debounce confirmation window, the firmware rejects the
  // trigger as a bounce and keeps homing, and the whole lift is re-zeroed
  // away.  The first layer lands at its nominal height.
  core::TrojanSuiteConfig cfg;
  cfg.t5 = core::T5Config{.mode = core::T5Config::Mode::kAtStart,
                          .shift_steps = 400,
                          .delay_after_homing_s = 0.0};
  const RunResult r = run_with(cfg);
  EXPECT_TRUE(r.finished);
  EXPECT_LT(r.part.first_layer_z_mm, 0.5);
  EXPECT_GE(r.endstop_bounces_rejected, 1u);
}

TEST(TrojanT6, HeaterDosEndsPrintInThermalError) {
  core::TrojanSuiteConfig cfg;
  cfg.t6 = core::T6Config{.hotend = true, .bed = false,
                          .delay_after_homing_s = 15.0};
  // A taller part: the runaway watch (hysteresis + 40 s protection
  // period) needs the print still running when it trips.
  SliceProfile profile;
  CubeSpec tall{.size_x_mm = 8, .size_y_mm = 8, .height_mm = 7,
                .center_x_mm = 110, .center_y_mm = 100};
  const RunResult r = run_with(cfg, slice_cube(tall, profile));
  EXPECT_FALSE(r.finished);
  EXPECT_TRUE(r.killed);
  EXPECT_NE(r.kill_reason.find("thermal"), std::string::npos);
  EXPECT_FALSE(r.capture.print_completed);
  // The part is incomplete: less material than a golden print deposits.
  const RunResult golden = run_with({}, slice_cube(tall, profile));
  EXPECT_LT(r.part.total_filament_mm, golden.part.total_filament_mm * 0.9);
}

TEST(TrojanT7, ForcedHeatingIgnoresFirmwarePanic) {
  core::TrojanSuiteConfig cfg;
  cfg.t7 = core::T7Config{.hotend = true, .delay_after_homing_s = 5.0};
  RigOptions options;
  options.trojans = cfg;
  options.post_kill_observation_s = 120.0;
  Rig rig(options);
  const RunResult r = rig.run(test_cube());
  // The firmware noticed (MAXTEMP kill)...
  EXPECT_TRUE(r.killed);
  // ...but the hotend kept heating far past the 275 C firmware limit,
  // toward physical destruction (paper: "heating the element past the
  // working specification").
  EXPECT_GT(r.hotend_peak_c, 300.0);
}

TEST(TrojanT8, DisablingDriversLosesSteps) {
  core::TrojanSuiteConfig cfg;
  cfg.t8 = core::T8Config{.axes = {true, true, false, true},
                          .period_s = 8.0,
                          .off_duration_s = 0.5,
                          .delay_after_homing_s = 2.0};
  const RunResult r = run_with(cfg);
  EXPECT_TRUE(r.finished);  // firmware never notices (open loop)
  const auto dropped = r.motor_dropped_steps[0] + r.motor_dropped_steps[1] +
                       r.motor_dropped_steps[3];
  EXPECT_GT(dropped, 100u);
  // Lost steps displace everything printed afterwards.
  EXPECT_NE(r.motor_steps[0], r.commanded_steps[0]);
}

TEST(TrojanT9, FanTamperUnderCools) {
  core::TrojanSuiteConfig cfg;
  cfg.t9 = core::T9Config{.duty_scale = 0.2};
  const RunResult tampered = run_with(cfg);
  const RunResult golden = run_with({});
  EXPECT_TRUE(tampered.finished);
  EXPECT_LT(tampered.mean_fan_rpm, golden.mean_fan_rpm * 0.5);
}

TEST(TrojanT9, FanTamperOverCools) {
  core::TrojanSuiteConfig cfg;
  // Force full cooling from the first layer regardless of the slicer's
  // first-layer fan-off rule.
  cfg.t9 = core::T9Config{.duty_scale = 1.0, .duty_offset = 1.0};
  const RunResult tampered = run_with(cfg);
  const RunResult golden = run_with({});
  EXPECT_GT(tampered.mean_fan_rpm, golden.mean_fan_rpm * 1.2);
}

TEST(TrojanT0, GoldenRunHasNoTrojanArtifacts) {
  const RunResult r = run_with({});
  EXPECT_TRUE(r.finished);
  EXPECT_NEAR(r.flow_ratio(), 1.0, 1e-9);
  EXPECT_LT(r.part.max_layer_shift_mm, 0.15);
  EXPECT_LT(r.part.max_z_spacing_mm, 0.3);
  EXPECT_NEAR(r.part.first_layer_z_mm, 0.35, 0.15);
}

TEST(TrojanT10, ThermistorSpoofOverheatsSilently) {
  core::TrojanSuiteConfig cfg;
  cfg.t10 = core::T10Config{.hotend = true, .understate_c = 25.0,
                            .delay_after_homing_s = 0.0};
  const RunResult r = run_with(cfg);
  // The print completes: the firmware never saw anything wrong...
  EXPECT_TRUE(r.finished);
  EXPECT_FALSE(r.killed);
  // ...while the hotend physically ran ~25 C past its setpoint.
  EXPECT_GT(r.hotend_peak_c, 230.0);
  EXPECT_LT(r.hotend_peak_c, 260.0);
  // And the capture is indistinguishable from golden: this Trojan class
  // is invisible to step-count detection (the paper's stated limitation
  // for heater Trojans).
  const RunResult golden = run_with({});
  const detect::Report rep = detect::compare(golden.capture, r.capture);
  EXPECT_FALSE(rep.trojan_likely);
}

TEST(TrojanT10, InactiveInRecordMode) {
  core::TrojanSuiteConfig cfg;
  cfg.t10 = core::T10Config{.hotend = true, .understate_c = 25.0};
  RigOptions options;
  options.trojans = cfg;
  options.route = core::RouteMode::kFpgaRecord;  // analog path untouched
  Rig rig(options);
  const RunResult r = rig.run(test_cube());
  EXPECT_TRUE(r.finished);
  EXPECT_LT(r.hotend_peak_c, 225.0);  // normal overshoot only
}

TEST(TrojanControl, DynamicDisableRestoresCleanOperation) {
  // Enable T2, then disable it mid-print: flow recovers for the rest.
  core::TrojanSuiteConfig cfg;
  cfg.t2 = core::T2Config{.keep_ratio = 0.5};
  RigOptions options;
  options.trojans = cfg;
  Rig rig(options);
  // Disable once half the layers have printed (a purely signal-level
  // trigger, as the multiplexer select would be driven in hardware).
  rig.board().fpga().layers().on_layer([&rig](std::uint64_t layer) {
    if (layer == 5) {
      if (auto* t = rig.board().trojans().find(core::TrojanId::kT2)) {
        t->set_enabled(false);
      }
    }
  });
  const RunResult r = rig.run(test_cube());  // 10 layers
  EXPECT_TRUE(r.finished);
  // Overall flow between the fully-masked 0.5 and clean 1.0.
  EXPECT_GT(r.flow_ratio(), 0.55);
  EXPECT_LT(r.flow_ratio(), 0.99);
}

/// FNV-1a of a run's capture bytes, its per-axis motor and commanded
/// steps, and its executed event count.
std::uint64_t run_digest(const RunResult& r) {
  core::Fnv1a h;
  const std::vector<std::uint8_t> capture = r.capture.to_binary();
  h.bytes(capture.data(), capture.size());
  for (const auto& steps : {r.motor_steps, r.commanded_steps}) {
    for (const std::int64_t s : steps) h.u64(static_cast<std::uint64_t>(s));
  }
  h.u64(r.events_executed);
  return h.value();
}

// These three rigs keep 110-412 events pending, far more than a clean
// print's ~24, so the scheduler files their keys deep in its queue.  The
// digests pin those runs byte for byte; a change that means to alter a
// run re-records them.
TEST(TrojanPins, DeepQueueRigsArePinned) {
  core::TrojanSuiteConfig t1;
  t1.t1 = core::T1Config{.period = sim::seconds(10), .pulses_per_burst = 100};
  EXPECT_EQ(run_digest(run_with(t1)), 0x6fda7ee9977cc54bull) << "T1";

  core::TrojanSuiteConfig t4;
  t4.t4 = core::T4Config{.layer_probability = 0.5, .shift_steps = 50};
  EXPECT_EQ(run_digest(run_with(t4)), 0xaced94c6ac3c0cfdull) << "T4";

  core::TrojanSuiteConfig t5;
  t5.t5 = core::T5Config{.mode = core::T5Config::Mode::kAtStart,
                         .shift_steps = 400,
                         .delay_after_homing_s = 1.0};
  EXPECT_EQ(run_digest(run_with(t5)), 0x1f8ab74caba5a4c9ull) << "T5";
}

}  // namespace
}  // namespace offramps::host
