// Side-channel probes (paper section II-B / VI "Related platforms").
//
// The defenses OFFRAMPS is compared against are mostly side-channel
// based - actuator power signatures (Gatlin et al., IEEE Access 2019),
// multi-modal acoustic/vibration sensing (arXiv:2110.02259), and
// master-recording audio verification (arXiv:1705.06454).  To quantify
// the paper's claim that direct signal access is "uniquely able to ...
// analyze prints with no loss of data", these probes produce what such
// defenses would see: a physical emission of the machine, sampled at a
// fixed rate, through measurement noise.
//
// Power model (A4988/24 V class):
//   * each enabled stepper draws a hold current (~4 W) plus a
//     rate-dependent switching term (up to ~4 W more near 10 kHz),
//   * heaters draw gate-duty x element power (x rail derate),
//   * the part fan and base electronics add small constant-ish terms,
//   * the current clamp adds zero-mean gaussian noise - the "lossy"
//     part of a side channel.
//
// Acoustic model (microphone near the frame, arbitrary level units):
//   * an enabled stepper emits a small coil-whine floor plus a tone
//     whose level tracks its step rate (motion axes ring the frame
//     hardest, the extruder least),
//   * the part fan contributes broadband noise at its duty,
//   * room ambience and microphone noise round it out.
//
// Vibration model (frame-mounted accelerometer, milli-g):
//   * only actual motion shakes the frame: per-axis level tracks step
//     rate, with the gantry axes dominating,
//   * a sensor floor plus gaussian noise.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "plant/printer.hpp"
#include "sim/pins.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"

namespace offramps::plant {

/// Side-channel sample taxonomy (also the wire kind byte of kSample
/// session frames - append only).
enum class SampleKind : std::uint8_t {
  kPower = 1,
  kAcoustic = 2,
  kVibration = 3,
};

/// One side-channel measurement (watts, acoustic level, vibration
/// magnitude, ...).
struct SideSample {
  double t_s = 0.0;
  double value = 0.0;
};

/// A whole print's worth of one side channel.
using SideTrace = std::vector<SideSample>;

/// Power probe configuration (current clamp on the supply, watts).
struct PowerProbeOptions {
  sim::Tick sample_period = sim::ms(50);
  double motor_hold_w = 4.0;
  double motor_switching_w = 4.0;     // additional at full step rate
  double full_step_rate_hz = 10'000.0;
  double fan_w = 2.0;                 // at 100% duty
  double base_electronics_w = 5.0;
  double noise_stddev_w = 1.5;        // clamp measurement noise
  std::uint64_t noise_seed = 0x50C4;
};

/// Acoustic probe configuration (microphone, arbitrary level units).
struct AcousticProbeOptions {
  sim::Tick sample_period = sim::ms(50);
  double ambient_level = 30.0;          // room + electronics ambience
  double idle_whine_per_motor = 0.5;    // enabled-but-still coil whine
  /// Per-axis tone level at full step rate (X, Y, Z, E).
  std::array<double, 4> tone_level{10.0, 10.0, 6.0, 4.0};
  double fan_level = 4.0;               // at 100% duty
  double full_step_rate_hz = 10'000.0;
  double noise_stddev = 1.0;            // microphone noise
  std::uint64_t noise_seed = 0xAC05;
};

/// Vibration probe configuration (frame accelerometer, milli-g).
struct VibrationProbeOptions {
  sim::Tick sample_period = sim::ms(50);
  double floor_mg = 2.0;                // sensor/idle floor
  /// Per-axis magnitude at full step rate (X, Y, Z, E).  The gantry
  /// axes swing real mass; the extruder barely registers.
  std::array<double, 4> axis_level_mg{25.0, 25.0, 10.0, 6.0};
  double full_step_rate_hz = 10'000.0;
  double noise_stddev_mg = 1.5;
  std::uint64_t noise_seed = 0x51B8;
};

/// Derives a per-rig measurement-noise seed from the rig's seed and a
/// per-channel tag (use the channel's default noise_seed as the tag).
/// Every physical probe has its own sensor, so two rigs - and two
/// channels on one rig - must never share a noise stream; mixing with
/// sim::mix64 (splitmix64) guarantees that even for adjacent rig seeds.
std::uint64_t probe_noise_seed(std::uint64_t rig_seed,
                               std::uint64_t channel_tag);

/// Samples one physical emission of the machine at a fixed period,
/// through gaussian measurement noise, clamped at zero.  The emission
/// model - the noise-free level - is the only per-kind code; build a
/// probe with make_probe().  The first sample is scheduled at
/// construction.
class SideProbe {
 public:
  virtual ~SideProbe() = default;
  SideProbe(const SideProbe&) = delete;
  SideProbe& operator=(const SideProbe&) = delete;

  [[nodiscard]] SampleKind kind() const { return kind_; }
  [[nodiscard]] const SideTrace& trace() const { return trace_; }
  [[nodiscard]] SideTrace take_trace() { return std::move(trace_); }

 protected:
  SideProbe(sim::Scheduler& sched, SampleKind kind, sim::Tick period,
            double noise_stddev, std::uint64_t noise_seed);

 private:
  /// Noise-free level over the `dt_s` seconds since the last sample.
  [[nodiscard]] virtual double signal(double dt_s) = 0;
  void sample();

  sim::Scheduler& sched_;
  SampleKind kind_;
  sim::Tick period_;
  double noise_stddev_;
  sim::Rng noise_;
  SideTrace trace_;
};

/// The machine's aggregate power draw (`ramps` is the RAMPS-side bank,
/// the supply side of the machine).
std::unique_ptr<SideProbe> make_probe(sim::Scheduler& sched,
                                      Printer& printer, sim::PinBank& ramps,
                                      const PowerProbeOptions& options);
/// The machine's acoustic emission.
std::unique_ptr<SideProbe> make_probe(sim::Scheduler& sched,
                                      Printer& printer, sim::PinBank& ramps,
                                      const AcousticProbeOptions& options);
/// The frame's vibration magnitude.
std::unique_ptr<SideProbe> make_probe(sim::Scheduler& sched,
                                      Printer& printer, sim::PinBank& ramps,
                                      const VibrationProbeOptions& options);

}  // namespace offramps::plant
