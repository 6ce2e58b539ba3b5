// Campaign-level robustness tests.
//
// 1. False-positive characterization: the real-time monitor and the
//    in-fabric guard must stay quiet across >= 20 seeded "time-noise"
//    runs (different firmware jitter seeds, benign UART corruption,
//    armed-but-zero-intensity faults) with no Trojan active.
// 2. Sensitivity under the same noise: a T5-style Z layer shift (extra
//    Z steps injected upstream of the FPGA) must still raise the alarm.
// 3. Structural blind spots are pinned down, not papered over: the
//    fabric's own Trojans (the real T5/T9) sabotage downstream of the
//    taps, which step-count monitors cannot see by design.
// 4. The campaign classifier: clean / fail-safe / silent-corruption
//    cells come out as expected, and UART bit-flip cells survive via
//    CRC framing with capture parity against the clean run.
// 5. The fault engine cannot fake an instant home against debounced
//    endstops (bouncy-switch satellite).
// 6. The default sweep's report is pinned byte for byte.
#include <gtest/gtest.h>

#include "core/bytes.hpp"
#include "core/fabric_guard.hpp"
#include "detect/monitor.hpp"
#include "host/fault_campaign.hpp"
#include "host/parallel_runner.hpp"
#include "host/rig.hpp"
#include "host/slicer.hpp"
#include "sim/fault.hpp"

namespace offramps::host {
namespace {

gcode::Program object() {
  SliceProfile profile;
  CubeSpec cube{.size_x_mm = 8, .size_y_mm = 8, .height_mm = 2,
                .center_x_mm = 110, .center_y_mm = 100};
  return slice_cube(cube, profile);
}

const core::Capture& golden_capture() {
  static const core::Capture cap = [] {
    RigOptions options;
    options.firmware.jitter_seed = 1;
    Rig rig(options);
    return rig.run(object()).capture;
  }();
  return cap;
}

/// The benign noise menu, cycled across runs: pure firmware time noise,
/// low-rate UART bit flips, dropped bytes, duplicated bytes, and armed
/// zero-intensity faults (the hooks engage, the faults never fire).
std::vector<sim::FaultSpec> noise_for(int i) {
  const auto seed = static_cast<std::uint64_t>(0xBE9100 + i);
  switch (i % 4) {
    case 1:
      return {{.kind = sim::FaultKind::kUartBitFlip, .target = "uart",
               .intensity = 0.001, .seed = seed}};
    case 2:
      return {{.kind = sim::FaultKind::kUartDropByte, .target = "uart",
               .intensity = 0.0005, .seed = seed}};
    case 3:
      return {{.kind = sim::FaultKind::kUartDupByte, .target = "uart",
               .intensity = 0.0005, .seed = seed},
              {.kind = sim::FaultKind::kGlitch, .target = "ramps.X_STEP",
               .intensity = 0.0, .seed = seed},
              {.kind = sim::FaultKind::kAnalogDrift,
               .target = "THERM_HOTEND", .intensity = 0.0, .seed = seed}};
    default:
      return {};  // firmware jitter seed alone
  }
}

TEST(FalsePositiveCharacterization, MonitorsStayQuietAcrossTwentyNoiseRuns) {
  const core::Capture& golden = golden_capture();
  const gcode::Program program = object();
  for (int i = 0; i < 20; ++i) {
    RigOptions options;
    options.firmware.jitter_seed = static_cast<std::uint64_t>(100 + i);
    options.faults = noise_for(i);
    Rig rig(options);
    core::FabricGuard guard(rig.board().fpga(), golden);
    detect::RealtimeMonitor monitor(rig.board().fpga().uart(), golden);
    const RunResult r = rig.run(program);
    ASSERT_TRUE(r.finished) << "noise run " << i;
    EXPECT_FALSE(monitor.alarmed()) << "monitor false positive, run " << i;
    EXPECT_FALSE(guard.alarmed()) << "guard false positive, run " << i;
    // Corrupted frames were discarded by CRC, never misread as steps.
    if (i % 4 == 1 || i % 4 == 2) {
      EXPECT_EQ(r.capture.size(), golden.size()) << i;
    }
  }
}

TEST(DetectionUnderNoise, T5StyleZShiftStillAlarms) {
  // Same noise as the quiet runs, plus a T5-style sabotage: a burst of
  // extra Z steps injected on the firmware side of the header (a
  // compromised cable/driver upstream of the FPGA's taps).  The monitors
  // must cut through the noise and alarm on the real attack.
  const core::Capture& golden = golden_capture();
  RigOptions options;
  options.firmware.jitter_seed = 777;
  options.faults = {
      {.kind = sim::FaultKind::kUartBitFlip, .target = "uart",
       .intensity = 0.001, .seed = 0xBE9177},
      {.kind = sim::FaultKind::kGlitch, .target = "arduino.Z_STEP",
       .intensity = 200.0, .start = sim::seconds(68), .seed = 0x75}};
  Rig rig(options);
  core::FabricGuardOptions gopt;
  gopt.safe_stop = false;  // observe the whole print
  core::FabricGuard guard(rig.board().fpga(), golden, gopt);
  detect::RealtimeMonitor monitor(rig.board().fpga().uart(), golden);
  const RunResult r = rig.run(object());
  EXPECT_GT(r.fault_stats.glitches, 100u);  // the attack really ran
  EXPECT_TRUE(monitor.alarmed());
  EXPECT_TRUE(guard.alarmed());
}

TEST(DetectionUnderNoise, FabricSideTrojansAreOutsideTheTapsByDesign) {
  // The real T5/T9 are the fabric's *own* Trojans: they inject/re-modulate
  // on the printer side, downstream of the monitoring taps, so the
  // step-count detectors are structurally blind to them (the paper's
  // threat model - OFFRAMPS is the attacker, not the victim).  Pin that
  // down: under the same noise the part is damaged but no alarm fires;
  // a campaign classifies this as silent corruption.
  const core::Capture& golden = golden_capture();
  RigOptions options;
  options.firmware.jitter_seed = 555;
  options.faults = {{.kind = sim::FaultKind::kUartBitFlip, .target = "uart",
                     .intensity = 0.001, .seed = 0xBE9155}};
  options.trojans.t5 =
      core::T5Config{.mode = core::T5Config::Mode::kAtStart,
                     .shift_steps = 400, .delay_after_homing_s = 1.0};
  options.trojans.t9 = core::T9Config{.duty_scale = 0.2};
  Rig rig(options);
  detect::RealtimeMonitor monitor(rig.board().fpga().uart(), golden);
  const RunResult r = rig.run(object());
  ASSERT_TRUE(r.finished);
  EXPECT_GT(r.part.first_layer_z_mm, 1.0);  // T5 did real damage
  EXPECT_FALSE(monitor.alarmed());          // ...and nobody saw it
}

TEST(CampaignClassifier, CellsClassifyAsExpected) {
  FaultCampaign campaign(object(), "classifier-test");
  ParallelRunner pool(1);
  const CampaignReport report = campaign.run(
      {// Zero intensity: the built-in control cell must come out clean.
       {.kind = sim::FaultKind::kGlitch, .target = "ramps.X_STEP",
        .intensity = 0.0},
       // Shorted hotend thermistor: zero ADC counts decode as an
       // impossibly hot sensor (NTC divider), so the firmware's MAXTEMP
       // protection kills the run - detected AND deviating, the
       // definition of fail-safe.
       {.kind = sim::FaultKind::kAnalogShort, .target = "THERM_HOTEND",
        .intensity = 1.0, .start = sim::seconds(5)},
       // Heavy UART bit-flips: CRC framing discards the corrupt frames
       // and the capture still matches the clean run transaction for
       // transaction.
       {.kind = sim::FaultKind::kUartBitFlip, .target = "uart",
        .intensity = 0.01, .seed = 0xF11}},
      pool);
  ASSERT_EQ(report.cells.size(), 3u);
  const CellResult& control = report.cells[0];
  const CellResult& shorted = report.cells[1];
  const CellResult& flips = report.cells[2];

  EXPECT_EQ(control.outcome, CellOutcome::kClean);
  EXPECT_EQ(control.capture_transactions,
            campaign.reference().capture.size());

  EXPECT_EQ(shorted.outcome, CellOutcome::kFailSafe);
  EXPECT_TRUE(shorted.killed);
  EXPECT_NE(shorted.kill_reason.find("MAXTEMP"), std::string::npos);

  EXPECT_EQ(flips.outcome, CellOutcome::kClean);
  EXPECT_GT(flips.crc_rejected, 0u);
  EXPECT_EQ(flips.capture_transactions,
            campaign.reference().capture.size());

  // The report serializes every cell with its classification.
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"fail_safe\""), std::string::npos);
  EXPECT_NE(json.find("\"analog_short\""), std::string::npos);
  EXPECT_NE(json.find("MAXTEMP"), std::string::npos);
  EXPECT_EQ(report.count(CellOutcome::kClean), 2u);
  EXPECT_EQ(report.count(CellOutcome::kFailSafe), 1u);
}

// fnv1a (core::Fnv1a) of the default sweep's JSON report, as
// `fault_campaign report.json` writes it.  A change that means to alter
// the report re-records it and says why.
constexpr std::uint64_t kDefaultSweepReportFnv = 0x0929317e45968aaeull;

TEST(FaultCampaign, DefaultSweepReportIsPinned) {
  // The examples/fault_campaign program: a sliced 10 x 10 x 2 mm cube.
  SliceProfile profile;
  CubeSpec cube{.size_x_mm = 10.0, .size_y_mm = 10.0, .height_mm = 2.0,
                .center_x_mm = 110.0, .center_y_mm = 100.0};
  FaultCampaign campaign(slice_cube(cube, profile), "cube-10x10x2");
  ParallelRunner pool(4);
  const std::string json =
      campaign.run(FaultCampaign::default_sweep(), pool).to_json();
  core::Fnv1a h;
  h.bytes(json.data(), json.size());
  EXPECT_EQ(h.value(), kDefaultSweepReportFnv);
}

TEST(EndstopDebounce, BouncySwitchCannotFakeAnInstantHome) {
  // Glitch the firmware-side X endstop net for the whole run: dozens of
  // fake contact edges arrive while the firmware homes.  Debounce must
  // reject every one of them, so homing still references the *physical*
  // switch and the print is bit-identical to a clean run with the same
  // time-noise seed.
  const gcode::Program program = object();
  RigOptions clean_options;
  clean_options.firmware.jitter_seed = 42;
  Rig clean_rig(clean_options);
  const RunResult clean = clean_rig.run(program);
  ASSERT_TRUE(clean.finished);

  RigOptions options;
  options.firmware.jitter_seed = 42;
  options.faults = {{.kind = sim::FaultKind::kGlitch,
                     .target = "arduino.X_MIN", .intensity = 50.0,
                     .seed = 0xB0CE}};
  Rig rig(options);
  const RunResult r = rig.run(program);
  ASSERT_TRUE(r.finished);
  EXPECT_GT(r.fault_stats.glitches, 100u);
  EXPECT_GE(r.endstop_bounces_rejected, 1u);
  EXPECT_EQ(r.motor_steps, clean.motor_steps);
  EXPECT_NEAR(r.part.first_layer_z_mm, clean.part.first_layer_z_mm, 1e-9);
}

}  // namespace
}  // namespace offramps::host
