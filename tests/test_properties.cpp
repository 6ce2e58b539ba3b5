// Cross-module property sweeps (parameterized gtest): quantitative
// invariants that must hold across whole parameter ranges, not just at
// hand-picked points.
#include <gtest/gtest.h>

#include <cmath>

#include "detect/compare.hpp"
#include "gcode/flaw3d.hpp"
#include "gcode/parser.hpp"
#include "gcode/stats.hpp"
#include "gcode/writer.hpp"
#include "host/rig.hpp"
#include "host/slicer.hpp"
#include "core/serial.hpp"
#include "helpers.hpp"
#include "sim/rng.hpp"
#include "uart_rx.hpp"

namespace offramps {
namespace {

gcode::Program object() {
  host::SliceProfile profile;
  host::CubeSpec cube{.size_x_mm = 8, .size_y_mm = 8, .height_mm = 2,
                      .center_x_mm = 110, .center_y_mm = 100};
  return host::slice_cube(cube, profile);
}

// --- Property: T2's mask ratio IS the physical flow ratio ----------------------

class MaskRatioSweep : public ::testing::TestWithParam<double> {};

TEST_P(MaskRatioSweep, FlowTracksKeepRatio) {
  const double keep = GetParam();
  host::RigOptions options;
  options.trojans.t2 = core::T2Config{.keep_ratio = keep};
  host::Rig rig(options);
  const host::RunResult r = rig.run(object());
  ASSERT_TRUE(r.finished);
  EXPECT_NEAR(r.flow_ratio(), keep, 0.03) << "keep ratio " << keep;
}

INSTANTIATE_TEST_SUITE_P(KeepRatios, MaskRatioSweep,
                         ::testing::Values(0.25, 0.4, 0.5, 0.6, 0.75, 0.9));

// --- Property: stepper segment duration matches trapezoid kinematics -----------

class TrapezoidSweep
    : public ::testing::TestWithParam<std::tuple<double, std::int64_t>> {};

TEST_P(TrapezoidSweep, DurationMatchesAnalyticModel) {
  const auto [feed, steps] = GetParam();
  sim::Scheduler sched;
  fw::Config config;
  config.segment_jitter_max = 0;  // deterministic timing for this test
  sim::PinBank bank(sched, "p.");
  fw::StepperEngine engine(sched, bank, config);
  fw::Planner planner(config);

  const fw::Segment seg = planner.plan({steps, 0, 0, 0}, feed);
  const sim::Tick start = sched.now();
  bool done = false;
  engine.start(seg, [&](bool, auto) { done = true; });
  sched.run_all();
  ASSERT_TRUE(done);
  const double elapsed = sim::to_seconds(sched.now() - start);

  // Analytic trapezoid: ramp entry->cruise, cruise, ramp cruise->exit.
  const double v0 = seg.entry_sps, vc = seg.cruise_sps, a = seg.accel_sps2;
  const double n = static_cast<double>(steps);
  const double ramp_steps = (vc * vc - v0 * v0) / (2.0 * a);
  double expected;
  if (2.0 * ramp_steps <= n) {
    const double ramp_time = (vc - v0) / a;
    expected = 2.0 * ramp_time + (n - 2.0 * ramp_steps) / vc;
  } else {
    const double peak = std::sqrt(v0 * v0 + a * n);  // triangular profile
    expected = 2.0 * (peak - v0) / a;
  }
  EXPECT_NEAR(elapsed, expected, expected * 0.08 + 0.002)
      << "feed " << feed << " steps " << steps;
}

INSTANTIATE_TEST_SUITE_P(
    FeedByDistance, TrapezoidSweep,
    ::testing::Combine(::testing::Values(10.0, 40.0, 120.0),
                       ::testing::Values<std::int64_t>(50, 1000, 20000)));

// --- Property: detection margin is monotone ------------------------------------

TEST(DetectionMonotonicity, WiderMarginNeverFindsMore) {
  const gcode::Program mutated =
      gcode::flaw3d::apply_reduction(object(), {.factor = 0.9});
  host::Rig golden_rig, trojan_rig;
  const auto golden = golden_rig.run(object()).capture;
  const auto trojaned = trojan_rig.run(mutated).capture;
  std::size_t prev = SIZE_MAX;
  for (const double margin : {0.5, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0}) {
    detect::CompareOptions opt;
    opt.margin_pct = margin;
    const auto rep = detect::compare(golden, trojaned, opt);
    EXPECT_LE(rep.mismatch_count(), prev) << "margin " << margin;
    prev = rep.mismatch_count();
  }
}

// --- Property: parser round trip on randomized commands ------------------------

class RandomRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomRoundTrip, WriteParseIdentity) {
  sim::Rng rng(GetParam());
  gcode::Program program;
  const char letters[] = {'X', 'Y', 'Z', 'E', 'F', 'S', 'P', 'I', 'J'};
  for (int i = 0; i < 60; ++i) {
    gcode::Command c;
    c.letter = rng.chance(0.7) ? 'G' : 'M';
    c.code = static_cast<int>(rng.uniform_int(0, 299));
    const int nparams = static_cast<int>(rng.uniform_int(0, 5));
    for (int p = 0; p < nparams; ++p) {
      const char letter =
          letters[static_cast<std::size_t>(rng.uniform_int(0, 8))];
      if (c.has(letter)) continue;
      // Values within the 5-decimal round-trip precision of the writer.
      const double value =
          std::round(rng.uniform(-500.0, 500.0) * 1e4) / 1e4;
      c.params.push_back({letter, value});
    }
    program.push_back(std::move(c));
  }
  const gcode::Program reparsed =
      gcode::parse_program(gcode::write_program(program));
  ASSERT_EQ(reparsed.size(), program.size());
  for (std::size_t i = 0; i < program.size(); ++i) {
    EXPECT_EQ(reparsed[i].letter, program[i].letter);
    EXPECT_EQ(reparsed[i].code, program[i].code);
    ASSERT_EQ(reparsed[i].params.size(), program[i].params.size());
    for (std::size_t p = 0; p < program[i].params.size(); ++p) {
      EXPECT_EQ(reparsed[i].params[p].letter, program[i].params[p].letter);
      EXPECT_NEAR(*reparsed[i].params[p].value,
                  *program[i].params[p].value, 1e-5);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomRoundTrip,
                         ::testing::Values(1u, 7u, 42u, 1337u));

// --- Property: reduction factor maps onto capture E ratio ----------------------

class ReductionCaptureSweep : public ::testing::TestWithParam<double> {};

TEST_P(ReductionCaptureSweep, FinalECountTracksFactor) {
  const double factor = GetParam();
  const auto mutated =
      gcode::flaw3d::apply_reduction(object(), {.factor = factor});
  host::Rig golden_rig, trojan_rig;
  const auto golden = golden_rig.run(object()).capture;
  const auto trojaned = trojan_rig.run(mutated).capture;
  const double ratio = static_cast<double>(trojaned.final_counts[3]) /
                       static_cast<double>(golden.final_counts[3]);
  // Retraction exemption keeps the realized ratio slightly below
  // `factor` (retractions stay full-size while extrusion shrinks).
  EXPECT_NEAR(ratio, factor, 0.1) << "factor " << factor;
  EXPECT_LE(ratio, factor + 0.02) << "factor " << factor;
  // Motion axes are untouched by reduction.
  EXPECT_EQ(trojaned.final_counts[0], golden.final_counts[0]);
  EXPECT_EQ(trojaned.final_counts[1], golden.final_counts[1]);
}

INSTANTIATE_TEST_SUITE_P(TableIIFactors, ReductionCaptureSweep,
                         ::testing::Values(0.5, 0.85, 0.9, 0.98));

// --- Property: slicer extrusion scales with object volume ----------------------

class VolumeSweep : public ::testing::TestWithParam<double> {};

TEST_P(VolumeSweep, FilamentScalesWithFootprintArea) {
  const double size = GetParam();
  host::SliceProfile profile;
  host::CubeSpec cube{.size_x_mm = size, .size_y_mm = size, .height_mm = 2,
                      .center_x_mm = 110, .center_y_mm = 100};
  const gcode::Statistics s =
      gcode::analyze(host::slice_cube(cube, profile));
  // Two perimeter loops plus zigzag infill at the configured spacing.
  const double expected_path_per_layer =
      2.0 * 4.0 * size + size * size / profile.infill_spacing_mm;
  const double measured = s.extrusion_path_mm / 8.0;  // 8 layers
  EXPECT_NEAR(measured, expected_path_per_layer,
              expected_path_per_layer * 0.35)
      << "cube size " << size;
}

INSTANTIATE_TEST_SUITE_P(Sizes, VolumeSweep,
                         ::testing::Values(6.0, 10.0, 14.0, 20.0));

// --- Property: UART link is transparent at any standard baud -------------------

class BaudSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(BaudSweep, SerialRoundTripAtBaud) {
  const std::uint32_t baud = GetParam();
  sim::Scheduler sched;
  sim::Wire line(sched, "UART", true);
  core::UartTx tx(sched, line, baud);
  test::UartRx rx(sched, line, baud);
  std::vector<std::uint8_t> received;
  rx.on_byte([&](std::uint8_t b, sim::Tick) { received.push_back(b); });
  std::vector<std::uint8_t> payload;
  for (int i = 0; i < 64; ++i) {
    payload.push_back(static_cast<std::uint8_t>(i * 37 + 11));
  }
  tx.send(payload);
  sched.run_all();
  ASSERT_EQ(received.size(), payload.size()) << "baud " << baud;
  EXPECT_EQ(received, payload);
  EXPECT_EQ(rx.framing_errors(), 0u);
}

INSTANTIATE_TEST_SUITE_P(StandardBauds, BaudSweep,
                         ::testing::Values(9'600u, 57'600u, 115'200u,
                                           250'000u, 1'000'000u));

// --- Property: T4's per-layer probability scales its activations ---------------

class WobbleProbabilitySweep : public ::testing::TestWithParam<double> {};

TEST_P(WobbleProbabilitySweep, ActivationsScaleWithProbability) {
  const double p = GetParam();
  host::RigOptions options;
  options.trojans.t4 =
      core::T4Config{.layer_probability = p, .shift_steps = 10};
  host::Rig rig(options);
  const host::RunResult r = rig.run(object());  // 8 layers
  ASSERT_TRUE(r.finished);
  const auto* t4 = rig.board().trojans().find(core::TrojanId::kT4);
  ASSERT_NE(t4, nullptr);
  // 8 print layers plus the end-sequence Z lift = up to 9 layer events;
  // binomial expectation p * events with exact checks at the extremes.
  EXPECT_LE(t4->activations(), 9u);
  if (p == 0.0) {
    EXPECT_EQ(t4->activations(), 0u);
  }
  if (p == 1.0) {
    EXPECT_GE(t4->activations(), 8u);
  }
}

INSTANTIATE_TEST_SUITE_P(Probabilities, WobbleProbabilitySweep,
                         ::testing::Values(0.0, 0.3, 0.7, 1.0));

// --- Property: homing converges from any power-on position ---------------------

class HomingPositionSweep : public ::testing::TestWithParam<double> {};

TEST_P(HomingPositionSweep, HomesFromAnywhere) {
  plant::PrinterParams params;
  params.initial_position_mm = {GetParam(), GetParam() * 0.8,
                                GetParam() * 0.1};
  test::DirectStack s({}, params);
  s.enqueue("G28\n");
  ASSERT_TRUE(s.run());
  EXPECT_TRUE(s.firmware.all_homed());
  EXPECT_NEAR(s.printer.axis(sim::Axis::kX).position_mm(), 0.0, 0.15);
  EXPECT_NEAR(s.printer.axis(sim::Axis::kY).position_mm(), 0.0, 0.15);
  EXPECT_NEAR(s.printer.axis(sim::Axis::kZ).position_mm(), 0.0, 0.15);
}

INSTANTIATE_TEST_SUITE_P(StartPositions, HomingPositionSweep,
                         ::testing::Values(0.0, 1.0, 60.0, 144.0, 249.0));

// --- Property: T8's deactivation period scales the damage ----------------------

class DriverDisableSweep : public ::testing::TestWithParam<double> {};

TEST_P(DriverDisableSweep, ShorterPeriodsDropMoreSteps) {
  const double period_s = GetParam();
  host::RigOptions options;
  options.trojans.t8 = core::T8Config{.axes = {true, true, false, true},
                                      .period_s = period_s,
                                      .off_duration_s = 0.3,
                                      .delay_after_homing_s = 1.0};
  host::Rig rig(options);
  const host::RunResult r = rig.run(object());
  ASSERT_TRUE(r.finished);
  const auto dropped = r.motor_dropped_steps[0] + r.motor_dropped_steps[1] +
                       r.motor_dropped_steps[3];
  // Duty of the outage is off/(period+off): damage must be in the same
  // ballpark as that fraction of the total motion.
  const auto total = static_cast<double>(
      r.capture.final_counts[0] + r.capture.final_counts[1] +
      std::abs(r.capture.final_counts[3]));
  const double duty = 0.3 / (period_s + 0.3);
  EXPECT_GT(static_cast<double>(dropped), total * duty * 0.1)
      << "period " << period_s;
  EXPECT_LT(static_cast<double>(dropped), total * duty * 4.0)
      << "period " << period_s;
}

INSTANTIATE_TEST_SUITE_P(Periods, DriverDisableSweep,
                         ::testing::Values(3.0, 8.0, 20.0));

// --- Property: relocation's take fraction shows up as nozzle blobs -------------

class RelocationFractionSweep : public ::testing::TestWithParam<double> {};

TEST_P(RelocationFractionSweep, BlobMassTracksTakeFraction) {
  const double fraction = GetParam();
  // Baseline: legitimate stationary extrusion (un-retracts) on a clean
  // print of the same object.
  host::Rig clean_rig;
  const host::RunResult clean = clean_rig.run(object());
  ASSERT_TRUE(clean.finished);
  const double baseline_blob =
      clean_rig.printer().deposition().blob_filament_mm();

  const auto mutated = gcode::flaw3d::apply_relocation(
      object(), {.every_n_moves = 10, .take_fraction = fraction});
  host::Rig rig;
  const host::RunResult r = rig.run(mutated);
  ASSERT_TRUE(r.finished);
  const double extra_blob =
      rig.printer().deposition().blob_filament_mm() - baseline_blob;
  // Roughly take_fraction of the part's filament ends up dumped in place
  // (minus the final unflushed batch and moving-window spillover).
  const double printed = r.part.total_filament_mm + extra_blob;
  EXPECT_NEAR(extra_blob / printed, fraction, fraction * 0.6 + 0.02)
      << "fraction " << fraction;
  // And the damage grows with the fraction.
  EXPECT_GT(extra_blob, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Fractions, RelocationFractionSweep,
                         ::testing::Values(0.05, 0.15, 0.3));

// --- Robustness: arbitrary input never crashes the parser ----------------------

class ParserFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParserFuzz, GarbageEitherParsesOrThrowsError) {
  sim::Rng rng(GetParam());
  for (int iter = 0; iter < 300; ++iter) {
    std::string line;
    const int len = static_cast<int>(rng.uniform_int(0, 60));
    for (int i = 0; i < len; ++i) {
      line.push_back(static_cast<char>(rng.uniform_int(32, 126)));
    }
    try {
      const auto cmd = gcode::parse_line(line);
      (void)cmd;  // parsed fine - acceptable
    } catch (const offramps::Error&) {
      // rejected cleanly - acceptable
    }
  }
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz,
                         ::testing::Values(1u, 99u, 2024u));

}  // namespace
}  // namespace offramps
