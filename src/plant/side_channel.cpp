#include "plant/side_channel.hpp"

#include <algorithm>

#include "sim/error.hpp"
#include "sim/trace.hpp"

namespace offramps::plant {

namespace {

/// Every probe samples at 20 Hz.
constexpr sim::Tick kSamplePeriod = sim::ms(50);

/// The step rate at which a motor's rate-dependent emission saturates.
constexpr double kFullStepRateHz = 10'000.0;

/// Fraction of the full step rate axis `axis` moved at since the last
/// sample.  Updates `last` even for disabled motors so a re-enable does
/// not see a step burst that never happened.
double step_rate_fraction(Printer& printer, sim::Axis axis, double dt_s,
                          std::array<std::uint64_t, 4>& last) {
  const auto i = static_cast<std::size_t>(axis);
  const StepperMotor& motor = printer.motor(axis);
  const std::uint64_t steps = motor.accepted_steps();
  const double rate = static_cast<double>(steps - last[i]) / dt_s;
  last[i] = steps;
  if (!motor.enabled()) return 0.0;
  return std::min(rate / kFullStepRateHz, 1.0);
}

}  // namespace

std::uint64_t probe_noise_tag(SampleKind kind) {
  switch (kind) {
    case SampleKind::kPower: return 0x50C4;
    case SampleKind::kAcoustic: return 0xAC05;
    case SampleKind::kVibration: return 0x51B8;
  }
  throw Error("probe_noise_tag: unknown sample kind");
}

std::uint64_t probe_noise_seed(std::uint64_t rig_seed,
                               std::uint64_t channel_tag) {
  return sim::mix64(rig_seed ^ sim::mix64(channel_tag));
}

SideProbe::SideProbe(sim::Scheduler& sched, SampleKind kind,
                     double noise_stddev, std::uint64_t noise_seed)
    : sched_(sched),
      kind_(kind),
      noise_stddev_(noise_stddev),
      noise_(noise_seed) {
  sched_.schedule_in(kSamplePeriod, [this] { sample(); });
}

void SideProbe::sample() {
  double level = signal(sim::to_seconds(kSamplePeriod));
  level += noise_.normal(0.0, noise_stddev_);
  trace_.push_back({sim::to_seconds(sched_.now()), std::max(level, 0.0)});
  sched_.schedule_in(kSamplePeriod, [this] { sample(); });
}

namespace {

// Power model: a current clamp on the supply, in watts.
constexpr double kMotorHoldW = 4.0;
constexpr double kMotorSwitchingW = 4.0;  // additional at full step rate
constexpr double kFanW = 2.0;             // at 100% duty
constexpr double kBaseElectronicsW = 5.0;
constexpr double kPowerNoiseW = 1.5;      // clamp measurement noise

class PowerProbe final : public SideProbe {
 public:
  PowerProbe(sim::Scheduler& sched, Printer& printer, sim::PinBank& ramps,
             std::uint64_t noise_seed)
      : SideProbe(sched, SampleKind::kPower, kPowerNoiseW, noise_seed),
        printer_(printer),
        hotend_(ramps.wire(sim::Pin::kHotendHeat)),
        bed_(ramps.wire(sim::Pin::kBedHeat)),
        fan_(ramps.wire(sim::Pin::kFan)) {}

 private:
  double signal(double dt_s) override {
    double watts = kBaseElectronicsW;
    for (const auto axis : sim::kAllAxes) watts += motor_power(axis, dt_s);
    const double derate = printer_.power().heater_derate();
    watts += hotend_.sample() * printer_.params().hotend.power_w * derate;
    watts += bed_.sample() * printer_.params().bed.power_w * derate;
    watts += fan_.sample() * kFanW;
    return watts;
  }

  /// A disabled motor draws nothing and keeps its step baseline.
  double motor_power(sim::Axis axis, double dt_s) {
    const auto i = static_cast<std::size_t>(axis);
    const StepperMotor& motor = printer_.motor(axis);
    if (!motor.enabled()) return 0.0;
    const std::uint64_t steps = motor.accepted_steps();
    const double rate = static_cast<double>(steps - last_steps_[i]) / dt_s;
    last_steps_[i] = steps;
    const double rate_fraction = std::min(rate / kFullStepRateHz, 1.0);
    return kMotorHoldW + kMotorSwitchingW * rate_fraction;
  }

  Printer& printer_;
  sim::DutyMeter hotend_;
  sim::DutyMeter bed_;
  sim::DutyMeter fan_;
  std::array<std::uint64_t, 4> last_steps_{};
};

// Acoustic model: a microphone near the frame, arbitrary level units.
constexpr double kAmbientLevel = 30.0;        // room + electronics ambience
constexpr double kIdleWhinePerMotor = 0.5;    // enabled-but-still coil whine
/// Per-axis tone level at full step rate (X, Y, Z, E).
constexpr std::array<double, 4> kToneLevel{10.0, 10.0, 6.0, 4.0};
constexpr double kFanLevel = 4.0;             // at 100% duty
constexpr double kAcousticNoise = 1.0;        // microphone noise

class AcousticProbe final : public SideProbe {
 public:
  AcousticProbe(sim::Scheduler& sched, Printer& printer, sim::PinBank& ramps,
                std::uint64_t noise_seed)
      : SideProbe(sched, SampleKind::kAcoustic, kAcousticNoise, noise_seed),
        printer_(printer),
        fan_(ramps.wire(sim::Pin::kFan)) {}

 private:
  double signal(double dt_s) override {
    double level = kAmbientLevel;
    for (const auto axis : sim::kAllAxes) {
      const auto i = static_cast<std::size_t>(axis);
      const double fraction =
          step_rate_fraction(printer_, axis, dt_s, last_steps_);
      if (printer_.motor(axis).enabled()) level += kIdleWhinePerMotor;
      level += kToneLevel[i] * fraction;
    }
    level += fan_.sample() * kFanLevel;
    return level;
  }

  Printer& printer_;
  sim::DutyMeter fan_;
  std::array<std::uint64_t, 4> last_steps_{};
};

// Vibration model: a frame-mounted accelerometer, milli-g.
constexpr double kFloorMg = 2.0;  // sensor/idle floor
/// Per-axis magnitude at full step rate (X, Y, Z, E).  The gantry axes
/// swing real mass; the extruder barely registers.
constexpr std::array<double, 4> kAxisLevelMg{25.0, 25.0, 10.0, 6.0};
constexpr double kVibrationNoiseMg = 1.5;

class VibrationProbe final : public SideProbe {
 public:
  VibrationProbe(sim::Scheduler& sched, Printer& printer,
                 std::uint64_t noise_seed)
      : SideProbe(sched, SampleKind::kVibration, kVibrationNoiseMg,
                  noise_seed),
        printer_(printer) {}

 private:
  double signal(double dt_s) override {
    double mg = kFloorMg;
    for (const auto axis : sim::kAllAxes) {
      const auto i = static_cast<std::size_t>(axis);
      mg += kAxisLevelMg[i] *
            step_rate_fraction(printer_, axis, dt_s, last_steps_);
    }
    return mg;
  }

  Printer& printer_;
  std::array<std::uint64_t, 4> last_steps_{};
};

}  // namespace

std::unique_ptr<SideProbe> make_probe(sim::Scheduler& sched,
                                      Printer& printer, sim::PinBank& ramps,
                                      SampleKind kind,
                                      std::uint64_t noise_seed) {
  switch (kind) {
    case SampleKind::kPower:
      return std::make_unique<PowerProbe>(sched, printer, ramps, noise_seed);
    case SampleKind::kAcoustic:
      return std::make_unique<AcousticProbe>(sched, printer, ramps,
                                             noise_seed);
    case SampleKind::kVibration:
      return std::make_unique<VibrationProbe>(sched, printer, noise_seed);
  }
  throw Error("make_probe: unknown sample kind");
}

}  // namespace offramps::plant
