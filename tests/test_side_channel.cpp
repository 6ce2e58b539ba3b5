// Tests for the side-channel probes and signature detection - the lossy
// baseline the paper's direct-signal approach is compared against.
#include <gtest/gtest.h>

#include <numeric>
#include <string>

#include "detect/side_channel.hpp"
#include "gcode/flaw3d.hpp"
#include "host/rig.hpp"
#include "host/slicer.hpp"

namespace offramps::detect {
namespace {

/// A report's fields, for the message of a failed expectation.
std::string fields(const SideReport& r) {
  return "windows " + std::to_string(r.windows_compared) + ", mismatches " +
         std::to_string(r.mismatches.size()) + ", largest delta " +
         std::to_string(r.largest_delta);
}

gcode::Program object() {
  host::SliceProfile profile;
  host::CubeSpec cube{.size_x_mm = 8, .size_y_mm = 8, .height_mm = 2.5,
                      .center_x_mm = 110, .center_y_mm = 100};
  return host::slice_cube(cube, profile);
}

host::RunResult probed_run(const gcode::Program& p, std::uint64_t seed,
                           core::TrojanSuiteConfig trojans = {}) {
  host::RigOptions options;
  options.firmware.jitter_seed = seed;
  options.probes[plant::SampleKind::kPower] = seed ^ 0xFACE;
  options.trojans = std::move(trojans);
  host::Rig rig(options);
  return rig.run(p);
}

TEST(PowerProbe, TraceCoversTheWholeRun) {
  const host::RunResult r = probed_run(object(), 1);
  ASSERT_FALSE(r.power_trace.empty());
  EXPECT_NEAR(r.power_trace.back().t_s, r.sim_seconds, 0.5);
  // 50 ms cadence.
  const double dt = r.power_trace[1].t_s - r.power_trace[0].t_s;
  EXPECT_NEAR(dt, 0.05, 1e-6);
}

TEST(PowerProbe, HeatupDrawsFullHotendPower) {
  const host::RunResult r = probed_run(object(), 1);
  // Early in heat-up: base (5) + hotend near 100% (40) + no motors.
  double max_early = 0.0;
  for (const auto& s : r.power_trace) {
    if (s.t_s > 20.0) break;
    max_early = std::max(max_early, s.value);
  }
  EXPECT_GT(max_early, 35.0);
  EXPECT_LT(max_early, 60.0);
}

TEST(PowerProbe, PrintingPhaseShowsMotorLoad) {
  const host::RunResult r = probed_run(object(), 1);
  // Mid-print: motors enabled (4 x ~4-8 W) + PID duty (~35% x 40 W).
  std::vector<double> mid;
  for (const auto& s : r.power_trace) {
    if (s.t_s > 80.0 && s.t_s < 100.0) mid.push_back(s.value);
  }
  ASSERT_FALSE(mid.empty());
  const double mean =
      std::accumulate(mid.begin(), mid.end(), 0.0) /
      static_cast<double>(mid.size());
  EXPECT_GT(mean, 25.0);
  EXPECT_LT(mean, 60.0);
}

TEST(PowerSignature, CleanReprintPassesDespiteNoise) {
  const auto golden = probed_run(object(), 1).power_trace;
  const auto reprint = probed_run(object(), 31337).power_trace;
  const SideReport rep = compare_side(golden, reprint, kPowerSignature);
  EXPECT_FALSE(rep.sabotage_likely) << fields(rep);
}

TEST(PowerSignature, HeaterDosIsObvious) {
  // Cutting heater power removes ~15-40 W: gross enough for the side
  // channel.
  core::TrojanSuiteConfig cfg;
  cfg.t6 = core::T6Config{.hotend = true, .bed = false,
                          .delay_after_homing_s = 10.0};
  const auto golden = probed_run(object(), 1).power_trace;
  const auto attacked = probed_run(object(), 7, cfg).power_trace;
  const SideReport rep = compare_side(golden, attacked, kPowerSignature);
  EXPECT_TRUE(rep.sabotage_likely) << fields(rep);
  EXPECT_GT(rep.largest_delta, 8.0);
}

TEST(PowerSignature, SubtleReductionIsInvisible) {
  // A 2% extrusion reduction perturbs one motor's switching power by
  // milliwatts - far beneath clamp noise.  The paper's lossless
  // step-count channel catches this case (Table II #4); the lossy
  // side channel cannot.
  const auto mutated =
      gcode::flaw3d::apply_reduction(object(), {.factor = 0.98});
  const auto golden = probed_run(object(), 1).power_trace;
  const auto attacked = probed_run(mutated, 7).power_trace;
  const SideReport rep = compare_side(golden, attacked, kPowerSignature);
  EXPECT_FALSE(rep.sabotage_likely) << fields(rep);
}

TEST(WindowMeans, ReducesCorrectly) {
  plant::SideTrace trace;
  for (int i = 0; i < 40; ++i) {
    trace.push_back({static_cast<double>(i) * 0.05,
                     i < 20 ? 10.0 : 30.0});
  }
  const auto means = window_means(trace, 1.0);
  ASSERT_EQ(means.size(), 2u);
  EXPECT_NEAR(means[0], 10.0, 1e-9);
  EXPECT_NEAR(means[1], 30.0, 1e-9);
}

TEST(WindowMeans, EmptyTrace) {
  EXPECT_TRUE(window_means(plant::SideTrace{}, 1.0).empty());
}

/// Attaches all three probes, noise seeds derived from the rig seed the
/// way svc::attach_probes does it.
host::RunResult multi_probed_run(const gcode::Program& p,
                                 std::uint64_t seed) {
  host::RigOptions options;
  options.firmware.jitter_seed = seed;
  for (const plant::SampleKind kind : plant::kProbeKinds) {
    options.probes[kind] =
        plant::probe_noise_seed(seed, plant::probe_noise_tag(kind));
  }
  host::Rig rig(options);
  return rig.run(p);
}

double mean_between(const plant::SideTrace& trace, double t0, double t1) {
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& s : trace) {
    if (s.t_s >= t0 && s.t_s < t1) {
      sum += s.value;
      ++n;
    }
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

TEST(AcousticProbe, TraceCoversTheWholeRunAt50ms) {
  const host::RunResult r = multi_probed_run(object(), 1);
  ASSERT_FALSE(r.acoustic_trace.empty());
  EXPECT_NEAR(r.acoustic_trace.back().t_s, r.sim_seconds, 0.5);
  const double dt = r.acoustic_trace[1].t_s - r.acoustic_trace[0].t_s;
  EXPECT_NEAR(dt, 0.05, 1e-6);
}

TEST(AcousticProbe, PrintingIsLouderThanHeatup) {
  const host::RunResult r = multi_probed_run(object(), 1);
  // Heat-up: ambience only (motors disabled, fan off).
  const double idle = mean_between(r.acoustic_trace, 2.0, 15.0);
  EXPECT_NEAR(idle, 30.0, 2.0);
  // Mid-print: motor tones and the part fan ride on the ambience.
  const double printing = mean_between(r.acoustic_trace, 80.0, 100.0);
  EXPECT_GT(printing, idle + 1.0);
  EXPECT_LT(printing, 60.0);
}

TEST(VibrationProbe, OnlyMotionShakesTheFrame) {
  const host::RunResult r = multi_probed_run(object(), 1);
  ASSERT_FALSE(r.vibration_trace.empty());
  // Heat-up: nothing moves - sensor floor plus noise.
  const double idle = mean_between(r.vibration_trace, 2.0, 15.0);
  EXPECT_NEAR(idle, 2.0, 1.5);
  // Mid-print: the gantry swings real mass.
  const double printing = mean_between(r.vibration_trace, 80.0, 100.0);
  EXPECT_GT(printing, idle + 1.0);
}

// Regression pin: probe noise seeds must be derived per rig (and per
// channel), never shared.  The original wiring attached every probe
// with its kind's tag as the seed, so every rig in a fleet heard the
// same microphone noise.
TEST(ProbeNoiseSeed, DistinctPerRigAndPerChannel) {
  using plant::SampleKind;
  const std::uint64_t ao = plant::probe_noise_tag(SampleKind::kAcoustic);
  const std::uint64_t vo = plant::probe_noise_tag(SampleKind::kVibration);
  const std::uint64_t po = plant::probe_noise_tag(SampleKind::kPower);
  // Every recorded trace was drawn with these tags.
  EXPECT_EQ(po, 0x50C4u);
  EXPECT_EQ(ao, 0xAC05u);
  EXPECT_EQ(vo, 0x51B8u);
  // Adjacent rig seeds must still diverge (splitmix64 mixing).
  EXPECT_NE(plant::probe_noise_seed(1000, ao),
            plant::probe_noise_seed(1001, ao));
  // Two channels on one rig are two different sensors.
  EXPECT_NE(plant::probe_noise_seed(1000, ao),
            plant::probe_noise_seed(1000, vo));
  EXPECT_NE(plant::probe_noise_seed(1000, ao),
            plant::probe_noise_seed(1000, po));
  // Pure function: same rig, same channel, same seed.
  EXPECT_EQ(plant::probe_noise_seed(1000, ao),
            plant::probe_noise_seed(1000, ao));
}

TEST(ProbeNoiseSeed, TwoRigsRecordDifferentTraces) {
  const gcode::Program p = object();
  const host::RunResult a = multi_probed_run(p, 1000);
  const host::RunResult b = multi_probed_run(p, 1001);
  ASSERT_EQ(a.acoustic_trace.size(), b.acoustic_trace.size());
  std::size_t differing = 0;
  for (std::size_t i = 0; i < a.acoustic_trace.size(); ++i) {
    differing += a.acoustic_trace[i].value != b.acoustic_trace[i].value ? 1 : 0;
  }
  EXPECT_GT(differing, a.acoustic_trace.size() / 2)
      << "two rigs' microphones must not share a noise sequence";
  std::size_t vib_differing = 0;
  for (std::size_t i = 0; i < a.vibration_trace.size(); ++i) {
    vib_differing +=
        a.vibration_trace[i].value != b.vibration_trace[i].value ? 1 : 0;
  }
  EXPECT_GT(vib_differing, a.vibration_trace.size() / 2);
}

TEST(SideSignature, CleanReprintPassesDespiteNoise) {
  const gcode::Program p = object();
  const auto golden = multi_probed_run(p, 1);
  const auto reprint = multi_probed_run(p, 31337);
  const SideSignatureOptions acoustic_opts{1.0, 5.0, 3, 2};
  EXPECT_FALSE(compare_side(golden.acoustic_trace, reprint.acoustic_trace,
                            acoustic_opts)
                   .sabotage_likely);
  const SideSignatureOptions vibration_opts{1.0, 8.0, 3, 2};
  EXPECT_FALSE(compare_side(golden.vibration_trace, reprint.vibration_trace,
                            vibration_opts)
                   .sabotage_likely);
}

TEST(SideSignature, TamperedAcousticRecordingTrips) {
  plant::SideTrace golden;
  for (int i = 0; i < 400; ++i) {
    golden.push_back({i * 0.05, 40.0});
  }
  const SideSignatureOptions acoustic_opts{1.0, 5.0, 3, 2};
  // The recording itself compares clean.
  EXPECT_FALSE(compare_side(golden, golden, acoustic_opts).sabotage_likely);

  // A print whose sound diverges mid-way from the recording is flagged.
  plant::SideTrace tampered = golden;
  for (auto& s : tampered) {
    if (s.t_s > 10.0) s.value = 25.0;
  }
  const SideReport rep = compare_side(golden, tampered, acoustic_opts);
  EXPECT_TRUE(rep.sabotage_likely) << fields(rep);
  EXPECT_GT(rep.largest_delta, 10.0);
}

}  // namespace
}  // namespace offramps::detect
