// Integration tests for the full rig (firmware + OFFRAMPS + printer),
// plus cross-stack invariants on golden prints.
#include <gtest/gtest.h>

#include "detect/compare.hpp"
#include "gcode/parser.hpp"
#include "host/rig.hpp"
#include "host/slicer.hpp"

namespace offramps::host {
namespace {

gcode::Program small_cube() {
  SliceProfile profile;
  CubeSpec cube{.size_x_mm = 8, .size_y_mm = 8, .height_mm = 2,
                .center_x_mm = 110, .center_y_mm = 100};
  return slice_cube(cube, profile);
}

TEST(Rig, GoldenPrintFinishesCleanly) {
  Rig rig;
  const RunResult r = rig.run(small_cube());
  EXPECT_TRUE(r.finished);
  EXPECT_FALSE(r.killed);
  EXPECT_TRUE(r.capture.print_completed);
  EXPECT_GT(r.capture.size(), 50u);
  EXPECT_TRUE(r.part.any_material);
}

TEST(Rig, StepConservationThroughBenignMitm) {
  // Every step the firmware commands after power-on must reach the
  // motors when no Trojan is armed: commanded == executed, zero drops.
  Rig rig;
  const RunResult r = rig.run(small_cube());
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(r.commanded_steps[i], r.motor_steps[i]) << "axis " << i;
    EXPECT_EQ(r.motor_dropped_steps[i], 0u) << "axis " << i;
  }
}

TEST(Rig, CaptureFinalCountsMatchTrackerTotals) {
  Rig rig;
  const RunResult r = rig.run(small_cube());
  // The final Z count covers print height plus the end-sequence lift.
  EXPECT_GT(r.capture.final_counts[2], 0);
  // E ends positive: the part consumed filament.
  EXPECT_GT(r.capture.final_counts[3], 1000);
}

TEST(Rig, PartDimensionsMatchTheGcode) {
  Rig rig;
  const RunResult r = rig.run(small_cube());
  EXPECT_NEAR(r.part.bbox_width_mm, 8.0, 0.2);
  EXPECT_NEAR(r.part.bbox_depth_mm, 8.0, 0.2);
  EXPECT_EQ(r.part.layer_count, 8u);
  EXPECT_LT(r.part.max_layer_shift_mm, 0.15);
  EXPECT_NEAR(r.flow_ratio(), 1.0, 1e-9);
}

TEST(Rig, ThermalBehaviourIsSane) {
  Rig rig;
  const RunResult r = rig.run(small_cube());
  EXPECT_GT(r.hotend_peak_c, 205.0);
  EXPECT_LT(r.hotend_peak_c, 230.0);
  EXPECT_NEAR(r.bed_peak_c, 25.0, 2.0);  // bed unused in this profile
  EXPECT_GT(r.mean_fan_rpm, 100.0);      // part fan ran from layer 2
}

TEST(Rig, DirectRouteProducesNoCapture) {
  RigOptions options;
  options.route = core::RouteMode::kDirect;
  Rig rig(options);
  const RunResult r = rig.run(small_cube());
  EXPECT_TRUE(r.finished);
  EXPECT_TRUE(r.capture.empty());  // FPGA out of circuit
  EXPECT_TRUE(r.part.any_material);  // but the print still happened
}

TEST(Rig, RecordRouteCapturesLosslessly) {
  RigOptions mitm_opts;
  mitm_opts.route = core::RouteMode::kFpgaMitm;
  Rig mitm(mitm_opts);
  const RunResult a = mitm.run(small_cube());

  RigOptions rec_opts;
  rec_opts.route = core::RouteMode::kFpgaRecord;
  rec_opts.firmware.jitter_seed = mitm_opts.firmware.jitter_seed;
  Rig rec(rec_opts);
  const RunResult b = rec.run(small_cube());

  // Identical seed, identical gcode: final counts agree exactly across
  // routing modes.
  EXPECT_EQ(a.capture.final_counts, b.capture.final_counts);
  EXPECT_FALSE(b.capture.empty());
}

TEST(Rig, SecondRunThrows) {
  Rig rig;
  rig.run(gcode::parse_program("G28 X\n"));
  EXPECT_THROW(rig.run(gcode::parse_program("G28 X\n")), offramps::Error);
}

TEST(Rig, DeterministicForFixedSeed) {
  RigOptions opts;
  opts.firmware.jitter_seed = 77;
  Rig a(opts), b(opts);
  const RunResult ra = a.run(small_cube());
  const RunResult rb = b.run(small_cube());
  ASSERT_EQ(ra.capture.size(), rb.capture.size());
  for (std::size_t i = 0; i < ra.capture.size(); ++i) {
    EXPECT_EQ(ra.capture.transactions[i].counts,
              rb.capture.transactions[i].counts);
  }
}

TEST(Rig, DifferentSeedsDriftWithinMargin) {
  // The paper's "time noise": known-good reprints drift, but always
  // within the 5% margin (section V-C).
  RigOptions a_opts, b_opts;
  a_opts.firmware.jitter_seed = 1;
  b_opts.firmware.jitter_seed = 999;
  Rig a(a_opts), b(b_opts);
  const RunResult ra = a.run(small_cube());
  const RunResult rb = b.run(small_cube());
  const detect::Report rep = detect::compare(ra.capture, rb.capture);
  EXPECT_FALSE(rep.trojan_likely);
  EXPECT_LT(rep.largest_percent, 5.0);
  EXPECT_EQ(ra.capture.final_counts, rb.capture.final_counts);
}

}  // namespace
}  // namespace offramps::host
