// End-to-end Flaw3D detection tests (paper section V-D, Table II): print
// golden, print mutated, compare captures - every Trojan must be
// detected; known-good reprints must not be.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "detect/compare.hpp"
#include "detect/monitor.hpp"
#include "gcode/flaw3d.hpp"
#include "host/rig.hpp"
#include "host/slicer.hpp"

namespace offramps::host {
namespace {

gcode::Program test_object() {
  SliceProfile profile;
  CubeSpec cube{.size_x_mm = 8, .size_y_mm = 8, .height_mm = 2,
                .center_x_mm = 110, .center_y_mm = 100};
  return slice_cube(cube, profile);
}

core::Capture print_capture(const gcode::Program& program,
                            std::uint64_t seed) {
  RigOptions options;
  options.firmware.jitter_seed = seed;
  Rig rig(options);
  RunResult r = rig.run(program);
  EXPECT_TRUE(r.finished);
  return std::move(r.capture);
}

struct Flaw3dFixture : ::testing::Test {
  static core::Capture* golden;  // shared across cases: one golden print

  static void SetUpTestSuite() {
    golden = new core::Capture(print_capture(test_object(), /*seed=*/1));
  }
  static void TearDownTestSuite() {
    delete golden;
    golden = nullptr;
  }
};

core::Capture* Flaw3dFixture::golden = nullptr;

TEST_F(Flaw3dFixture, KnownGoodReprintIsNotFlagged) {
  const core::Capture reprint = print_capture(test_object(), /*seed=*/424242);
  const detect::Report rep = detect::compare(*golden, reprint);
  EXPECT_FALSE(rep.trojan_likely) << rep.to_string();
}

TEST_F(Flaw3dFixture, ReductionHalfIsDetected) {
  const auto mutated =
      gcode::flaw3d::apply_reduction(test_object(), {.factor = 0.5});
  const detect::Report rep =
      detect::compare(*golden, print_capture(mutated, 7));
  EXPECT_TRUE(rep.trojan_likely);
  EXPECT_FALSE(rep.mismatches.empty());
}

TEST_F(Flaw3dFixture, StealthiestReductionIsDetected) {
  // Table II case 4: only 2% reduction - structurally invisible, still
  // caught (by the exact final-count check if nothing else).
  const auto mutated =
      gcode::flaw3d::apply_reduction(test_object(), {.factor = 0.98});
  const detect::Report rep =
      detect::compare(*golden, print_capture(mutated, 7));
  EXPECT_TRUE(rep.trojan_likely) << rep.to_string();
}

TEST_F(Flaw3dFixture, RelocationIsDetected) {
  const auto mutated = gcode::flaw3d::apply_relocation(
      test_object(), {.every_n_moves = 20, .take_fraction = 0.15});
  const detect::Report rep =
      detect::compare(*golden, print_capture(mutated, 7));
  EXPECT_TRUE(rep.trojan_likely);
}

TEST_F(Flaw3dFixture, StealthiestRelocationIsDetected) {
  // Table II case 8: relocate every 100 moves.
  const auto mutated = gcode::flaw3d::apply_relocation(
      test_object(), {.every_n_moves = 100, .take_fraction = 0.15});
  const detect::Report rep =
      detect::compare(*golden, print_capture(mutated, 7));
  EXPECT_TRUE(rep.trojan_likely) << rep.to_string();
}

TEST_F(Flaw3dFixture, RealtimeMonitorHaltsAHeavyTrojanEarly) {
  const auto mutated =
      gcode::flaw3d::apply_reduction(test_object(), {.factor = 0.5});
  RigOptions options;
  options.firmware.jitter_seed = 9;
  Rig rig(options);
  const std::string halted = "halted by the real-time monitor";
  detect::RealtimeMonitor monitor(rig.board().fpga().uart(), *golden);
  monitor.on_alarm([&](const std::vector<detect::Mismatch>&) {
    rig.firmware().kill(halted);
  });
  const RunResult r = rig.run(mutated);
  EXPECT_TRUE(monitor.alarmed());
  EXPECT_EQ(r.kill_reason, halted);
  EXPECT_TRUE(r.killed);
  // Halted early: material (and machine time) was saved.
  const double golden_e = static_cast<double>((*golden).final_counts[3]);
  EXPECT_LT(static_cast<double>(r.capture.final_counts[3]),
            golden_e * 0.9);
}

TEST_F(Flaw3dFixture, RealtimeMonitorLetsCleanPrintRun) {
  RigOptions options;
  options.firmware.jitter_seed = 31337;
  Rig rig(options);
  detect::RealtimeMonitor monitor(rig.board().fpga().uart(), *golden);
  monitor.on_alarm([&](const std::vector<detect::Mismatch>&) {
    rig.firmware().kill("halted by the real-time monitor");
  });
  const RunResult r = rig.run(test_object());
  EXPECT_FALSE(monitor.alarmed());
  EXPECT_TRUE(r.finished);
}

}  // namespace
}  // namespace offramps::host
