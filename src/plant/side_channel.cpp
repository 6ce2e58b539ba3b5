#include "plant/side_channel.hpp"

#include <algorithm>

#include "sim/trace.hpp"

namespace offramps::plant {

namespace {

/// Fraction of the full step rate axis `axis` moved at since the last
/// sample.  Updates `last` even for disabled motors so a re-enable does
/// not see a step burst that never happened.
double step_rate_fraction(Printer& printer, sim::Axis axis, double dt_s,
                          double full_rate_hz,
                          std::array<std::uint64_t, 4>& last) {
  const auto i = static_cast<std::size_t>(axis);
  const StepperMotor& motor = printer.motor(axis);
  const std::uint64_t steps = motor.accepted_steps();
  const double rate = static_cast<double>(steps - last[i]) / dt_s;
  last[i] = steps;
  if (!motor.enabled()) return 0.0;
  return std::min(rate / full_rate_hz, 1.0);
}

}  // namespace

std::uint64_t probe_noise_seed(std::uint64_t rig_seed,
                               std::uint64_t channel_tag) {
  return sim::mix64(rig_seed ^ sim::mix64(channel_tag));
}

SideProbe::SideProbe(sim::Scheduler& sched, SampleKind kind,
                     sim::Tick period, double noise_stddev,
                     std::uint64_t noise_seed)
    : sched_(sched),
      kind_(kind),
      period_(period),
      noise_stddev_(noise_stddev),
      noise_(noise_seed) {
  sched_.schedule_in(period_, [this] { sample(); });
}

void SideProbe::sample() {
  double level = signal(sim::to_seconds(period_));
  level += noise_.normal(0.0, noise_stddev_);
  trace_.push_back({sim::to_seconds(sched_.now()), std::max(level, 0.0)});
  sched_.schedule_in(period_, [this] { sample(); });
}

namespace {

class PowerProbe final : public SideProbe {
 public:
  PowerProbe(sim::Scheduler& sched, Printer& printer, sim::PinBank& ramps,
             const PowerProbeOptions& options)
      : SideProbe(sched, SampleKind::kPower, options.sample_period,
                  options.noise_stddev_w, options.noise_seed),
        printer_(printer),
        options_(options),
        hotend_(ramps.wire(sim::Pin::kHotendHeat)),
        bed_(ramps.wire(sim::Pin::kBedHeat)),
        fan_(ramps.wire(sim::Pin::kFan)) {}

 private:
  double signal(double dt_s) override {
    double watts = options_.base_electronics_w;
    for (const auto axis : sim::kAllAxes) watts += motor_power(axis, dt_s);
    const double derate = printer_.power().heater_derate();
    watts += hotend_.sample() * printer_.params().hotend.power_w * derate;
    watts += bed_.sample() * printer_.params().bed.power_w * derate;
    watts += fan_.sample() * options_.fan_w;
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
    const double rate_fraction =
        std::min(rate / options_.full_step_rate_hz, 1.0);
    return options_.motor_hold_w + options_.motor_switching_w * rate_fraction;
  }

  Printer& printer_;
  PowerProbeOptions options_;
  sim::DutyMeter hotend_;
  sim::DutyMeter bed_;
  sim::DutyMeter fan_;
  std::array<std::uint64_t, 4> last_steps_{};
};

class AcousticProbe final : public SideProbe {
 public:
  AcousticProbe(sim::Scheduler& sched, Printer& printer, sim::PinBank& ramps,
                const AcousticProbeOptions& options)
      : SideProbe(sched, SampleKind::kAcoustic, options.sample_period,
                  options.noise_stddev, options.noise_seed),
        printer_(printer),
        options_(options),
        fan_(ramps.wire(sim::Pin::kFan)) {}

 private:
  double signal(double dt_s) override {
    double level = options_.ambient_level;
    for (const auto axis : sim::kAllAxes) {
      const auto i = static_cast<std::size_t>(axis);
      const double fraction = step_rate_fraction(
          printer_, axis, dt_s, options_.full_step_rate_hz, last_steps_);
      if (printer_.motor(axis).enabled()) {
        level += options_.idle_whine_per_motor;
      }
      level += options_.tone_level[i] * fraction;
    }
    level += fan_.sample() * options_.fan_level;
    return level;
  }

  Printer& printer_;
  AcousticProbeOptions options_;
  sim::DutyMeter fan_;
  std::array<std::uint64_t, 4> last_steps_{};
};

class VibrationProbe final : public SideProbe {
 public:
  VibrationProbe(sim::Scheduler& sched, Printer& printer,
                 const VibrationProbeOptions& options)
      : SideProbe(sched, SampleKind::kVibration, options.sample_period,
                  options.noise_stddev_mg, options.noise_seed),
        printer_(printer),
        options_(options) {}

 private:
  double signal(double dt_s) override {
    double mg = options_.floor_mg;
    for (const auto axis : sim::kAllAxes) {
      const auto i = static_cast<std::size_t>(axis);
      const double fraction = step_rate_fraction(
          printer_, axis, dt_s, options_.full_step_rate_hz, last_steps_);
      mg += options_.axis_level_mg[i] * fraction;
    }
    return mg;
  }

  Printer& printer_;
  VibrationProbeOptions options_;
  std::array<std::uint64_t, 4> last_steps_{};
};

}  // namespace

std::unique_ptr<SideProbe> make_probe(sim::Scheduler& sched,
                                      Printer& printer, sim::PinBank& ramps,
                                      const PowerProbeOptions& options) {
  return std::make_unique<PowerProbe>(sched, printer, ramps, options);
}

std::unique_ptr<SideProbe> make_probe(sim::Scheduler& sched,
                                      Printer& printer, sim::PinBank& ramps,
                                      const AcousticProbeOptions& options) {
  return std::make_unique<AcousticProbe>(sched, printer, ramps, options);
}

std::unique_ptr<SideProbe> make_probe(sim::Scheduler& sched,
                                      Printer& printer, sim::PinBank&,
                                      const VibrationProbeOptions& options) {
  return std::make_unique<VibrationProbe>(sched, printer, options);
}

}  // namespace offramps::plant
