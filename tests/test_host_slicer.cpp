// Unit tests for the slicer-lite g-code generators.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numbers>

#include "gcode/stats.hpp"
#include "host/slicer.hpp"
#include "sim/error.hpp"

namespace offramps::host {
namespace {

using gcode::analyze;
using gcode::Statistics;

TEST(SliceProfile, EPerMmMatchesGeometry) {
  SliceProfile p;
  // 0.25 * 0.45 / (pi * 0.875^2) ~= 0.0468
  EXPECT_NEAR(p.e_per_mm(), 0.0468, 0.001);
}

TEST(StartSequence, HeatsHomesAndPrimes) {
  SliceProfile p;
  const auto program = start_sequence(p);
  bool saw_m109 = false, saw_g28 = false, saw_prime = false;
  bool m109_before_g28 = false;
  for (const auto& cmd : program) {
    if (cmd.is('M', 109)) {
      saw_m109 = true;
      m109_before_g28 = !saw_g28;
    }
    if (cmd.is('G', 28)) saw_g28 = true;
    if (cmd.is('G', 1) && cmd.has('E') && !cmd.has('X')) saw_prime = true;
  }
  EXPECT_TRUE(saw_m109);
  EXPECT_TRUE(saw_g28);
  EXPECT_TRUE(saw_prime);
  EXPECT_TRUE(m109_before_g28);
}

TEST(StartSequence, BedCommandsOnlyWhenBedEnabled) {
  SliceProfile cold;
  cold.bed_temp_c = 0.0;
  for (const auto& cmd : start_sequence(cold)) {
    EXPECT_FALSE(cmd.is('M', 190));
  }
  SliceProfile warm;
  warm.bed_temp_c = 60.0;
  bool saw_m190 = false;
  for (const auto& cmd : start_sequence(warm)) {
    if (cmd.is('M', 190)) saw_m190 = true;
  }
  EXPECT_TRUE(saw_m190);
}

TEST(EndSequence, ShutsEverythingDown) {
  SliceProfile p;
  const auto program = end_sequence(p);
  bool hotend_off = false, fan_off = false, motors_off = false;
  for (const auto& cmd : program) {
    if (cmd.is('M', 104) && cmd.value_or('S', -1.0) == 0.0) {
      hotend_off = true;
    }
    if (cmd.is('M', 107)) fan_off = true;
    if (cmd.is('M', 84)) motors_off = true;
  }
  EXPECT_TRUE(hotend_off);
  EXPECT_TRUE(fan_off);
  EXPECT_TRUE(motors_off);
}

TEST(SliceCube, FootprintAndLayersMatchSpec) {
  SliceProfile p;
  CubeSpec cube{.size_x_mm = 12, .size_y_mm = 8, .height_mm = 3,
                .center_x_mm = 100, .center_y_mm = 90};
  const Statistics s = analyze(slice_cube(cube, p));
  EXPECT_NEAR(s.extrusion_bbox.width(), 12.0, 1e-6);
  EXPECT_NEAR(s.extrusion_bbox.depth(), 8.0, 1e-6);
  EXPECT_NEAR(s.extrusion_bbox.min_x, 94.0, 1e-6);
  EXPECT_EQ(s.layer_z.size(), 12u);  // 3 / 0.25
  EXPECT_NEAR(s.max_z, 8.0, 1e-6);  // includes the end-sequence lift
}

TEST(SliceCube, ExtrusionMatchesPathGeometry) {
  SliceProfile p;
  CubeSpec cube{.size_x_mm = 10, .size_y_mm = 10, .height_mm = 2,
                .center_x_mm = 100, .center_y_mm = 90};
  const Statistics s = analyze(slice_cube(cube, p));
  // Total filament tracks extrusion path length times e_per_mm (plus
  // prime, minus nothing else).
  EXPECT_NEAR(s.extruded_mm,
              s.extrusion_path_mm * p.e_per_mm() + p.prime_e_mm +
                  s.retracted_mm,
              s.extruded_mm * 0.05);
}

TEST(SliceCube, FanTurnsOnAtConfiguredLayer) {
  SliceProfile p;
  p.fan_from_layer = 2;
  CubeSpec cube{.size_x_mm = 10, .size_y_mm = 10, .height_mm = 2,
                .center_x_mm = 100, .center_y_mm = 90};
  const auto program = slice_cube(cube, p);
  // The M106 must appear after the first layer's Z move (0.25) and before
  // the third layer's (0.75).
  double z_at_fan_on = -1.0;
  double current_z = 0.0;
  for (const auto& cmd : program) {
    if (cmd.is('G', 1) && cmd.has('Z')) current_z = *cmd.get('Z');
    if (cmd.is('M', 106) && cmd.value_or('S', 0.0) > 0.0 &&
        z_at_fan_on < 0.0) {
      z_at_fan_on = current_z;
    }
  }
  EXPECT_NEAR(z_at_fan_on, 0.5, 1e-6);
}

TEST(SliceCube, DegenerateSpecThrows) {
  SliceProfile p;
  CubeSpec bad{.size_x_mm = 0, .size_y_mm = 10, .height_mm = 2,
               .center_x_mm = 100, .center_y_mm = 90};
  EXPECT_THROW(slice_cube(bad, p), offramps::Error);
  // Non-finite sizes never reach the layer count's cast to an integer.
  for (const double mm : {std::numeric_limits<double>::quiet_NaN(),
                          std::numeric_limits<double>::infinity(), -1.0}) {
    for (double CubeSpec::*dim :
         {&CubeSpec::size_x_mm, &CubeSpec::size_y_mm, &CubeSpec::height_mm}) {
      CubeSpec cube{.size_x_mm = 10, .size_y_mm = 10, .height_mm = 2,
                    .center_x_mm = 100, .center_y_mm = 90};
      cube.*dim = mm;
      EXPECT_THROW(slice_cube(cube, p), offramps::Error) << mm;
    }
  }
}

TEST(SliceSquare, SingleWallHasNoInfill) {
  SliceProfile p;
  SquareSpec spec{.size_mm = 20, .height_mm = 2, .center_x_mm = 100,
                  .center_y_mm = 90};
  const Statistics s = analyze(slice_square(spec, p));
  // Per layer: one 80 mm loop.
  const double per_layer = s.extrusion_path_mm / 8.0;  // 8 layers
  EXPECT_NEAR(per_layer, 80.0, 1.0);
}

TEST(SliceCylinder, PolygonPerimeterApproximatesCircle) {
  SliceProfile p;
  CylinderSpec spec{.diameter_mm = 20, .height_mm = 1, .facets = 64,
                    .center_x_mm = 100, .center_y_mm = 90};
  const Statistics s = analyze(slice_cylinder(spec, p));
  const double per_layer = s.extrusion_path_mm / 4.0;  // 4 layers
  EXPECT_NEAR(per_layer, std::numbers::pi * 20.0, 0.5);
  EXPECT_NEAR(s.extrusion_bbox.width(), 20.0, 0.1);
}

TEST(SliceCylinder, TooFewFacetsThrows) {
  SliceProfile p;
  CylinderSpec spec{.diameter_mm = 20, .height_mm = 1, .facets = 2,
                    .center_x_mm = 100, .center_y_mm = 90};
  EXPECT_THROW(slice_cylinder(spec, p), offramps::Error);
}

TEST(SliceCube, SkirtDrawsOutlinesAroundThePart) {
  SliceProfile with_skirt;
  with_skirt.skirt_loops = 2;
  with_skirt.skirt_gap_mm = 3.0;
  CubeSpec cube{.size_x_mm = 10, .size_y_mm = 10, .height_mm = 2,
                .center_x_mm = 100, .center_y_mm = 90};
  const Statistics skirted = analyze(slice_cube(cube, with_skirt));
  SliceProfile plain;
  const Statistics bare = analyze(slice_cube(cube, plain));
  // The bounding box grows by the skirt gap on each side...
  EXPECT_NEAR(skirted.extrusion_bbox.width(), 10.0 + 2.0 * 3.45, 0.2);
  // ...and extrusion grows by roughly two outlines' worth.
  EXPECT_GT(skirted.extruded_mm, bare.extruded_mm + 4.0);
  // Zero loops reproduces the original program exactly.
  SliceProfile zero = with_skirt;
  zero.skirt_loops = 0;
  EXPECT_EQ(slice_cube(cube, zero), slice_cube(cube, plain));
}

TEST(Slicer, RetractionsAppearAtLayerChanges) {
  SliceProfile p;
  CubeSpec cube{.size_x_mm = 10, .size_y_mm = 10, .height_mm = 2,
                .center_x_mm = 100, .center_y_mm = 90};
  const Statistics s = analyze(slice_cube(cube, p));
  // One retract per layer change plus one in the end sequence.
  EXPECT_GE(s.retraction_count, 8u);
  EXPECT_LE(s.retraction_count, 10u);
}

}  // namespace
}  // namespace offramps::host
