// Side-channel probes (paper section II-B / VI "Related platforms").
//
// The defenses OFFRAMPS is compared against are mostly side-channel
// based - actuator power signatures (Gatlin et al., IEEE Access 2019),
// multi-modal acoustic/vibration sensing (arXiv:2110.02259), and
// master-recording audio verification (arXiv:1705.06454).  To quantify
// the paper's claim that direct signal access is "uniquely able to ...
// analyze prints with no loss of data", these probes produce what such
// defenses would see: a physical emission of the machine, sampled every
// 50 ms, through measurement noise.  A probe is picked by its SampleKind
// and takes only a noise seed: the parameters of each model below are
// named constants beside it in side_channel.cpp.
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
#include <optional>
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

/// The probe kinds, in the order a rig attaches them.
inline constexpr std::array<SampleKind, 3> kProbeKinds{
    SampleKind::kPower, SampleKind::kAcoustic, SampleKind::kVibration};

/// The noise seed of each attached probe, one slot per kind, so a kind
/// is attached at most once; an empty slot attaches nothing.
struct ProbeSeeds {
  std::array<std::optional<std::uint64_t>, kProbeKinds.size()> slots{};

  std::optional<std::uint64_t>& operator[](SampleKind kind) {
    return slots[static_cast<std::size_t>(kind) - 1];
  }
  const std::optional<std::uint64_t>& operator[](SampleKind kind) const {
    return slots[static_cast<std::size_t>(kind) - 1];
  }
};

/// The kind's noise tag, the second argument of probe_noise_seed():
/// 0x50C4 (power), 0xAC05 (acoustic), 0x51B8 (vibration).
std::uint64_t probe_noise_tag(SampleKind kind);

/// Derives a per-rig measurement-noise seed from the rig's seed and a
/// per-channel tag (probe_noise_tag()).  Every physical probe has its
/// own sensor, so two rigs - and two channels on one rig - must never
/// share a noise stream; mixing with sim::mix64 (splitmix64) guarantees
/// that even for adjacent rig seeds.
std::uint64_t probe_noise_seed(std::uint64_t rig_seed,
                               std::uint64_t channel_tag);

/// Samples one physical emission of the machine every 50 ms, through
/// gaussian measurement noise, clamped at zero.  The emission model -
/// the noise-free level and the noise width - is the only per-kind code;
/// build a probe with make_probe().  The first sample is scheduled at
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
  SideProbe(sim::Scheduler& sched, SampleKind kind, double noise_stddev,
            std::uint64_t noise_seed);

 private:
  /// Noise-free level over the `dt_s` seconds since the last sample.
  [[nodiscard]] virtual double signal(double dt_s) = 0;
  void sample();

  sim::Scheduler& sched_;
  SampleKind kind_;
  double noise_stddev_;
  sim::Rng noise_;
  SideTrace trace_;
};

/// A probe of `kind` (`ramps` is the RAMPS-side bank, the supply side
/// of the machine) whose measurement noise draws from `noise_seed`.
std::unique_ptr<SideProbe> make_probe(sim::Scheduler& sched,
                                      Printer& printer, sim::PinBank& ramps,
                                      SampleKind kind,
                                      std::uint64_t noise_seed);

}  // namespace offramps::plant
