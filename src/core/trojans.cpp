#include "core/trojans.hpp"

#include <algorithm>

#include "sim/error.hpp"
#include "sim/thermistor.hpp"
#include "sim/trace.hpp"

namespace offramps::core {
namespace {

constexpr sim::Tick kInjectedPulseWidth = sim::us(1);

/// Builds the pulse generator a Trojan drives into one step path.
std::unique_ptr<PulseGenerator> make_generator(Fpga& fpga, sim::Pin pin) {
  return std::make_unique<PulseGenerator>(fpga.scheduler(), fpga.path(pin));
}

// --- T1: loose belt (random X/Y step injection) -----------------------------

class T1AxisShift final : public Trojan {
 public:
  T1AxisShift(Fpga& fpga, T1Config cfg)
      : Trojan(fpga),
        cfg_(cfg),
        rng_(0x71aa),
        gen_x_(make_generator(fpga, sim::Pin::kXStep)),
        gen_y_(make_generator(fpga, sim::Pin::kYStep)) {}

  [[nodiscard]] TrojanId id() const override { return TrojanId::kT1; }

 private:
  void activate() override {
    const auto gen = ++generation_;
    schedule_next(gen);
  }
  void deactivate() override { ++generation_; }

  void schedule_next(std::uint64_t gen) {
    fpga_.scheduler().schedule_in(cfg_.period, [this, gen] {
      if (gen != generation_ || !enabled()) return;
      fire();
      schedule_next(gen);
    });
  }

  void fire() {
    bool use_x;
    if (cfg_.alternate_axes) {
      use_x = next_x_;
      next_x_ = !next_x_;
    } else {
      use_x = rng_.chance(0.5);
    }
    (use_x ? *gen_x_ : *gen_y_)
        .burst({.count = cfg_.pulses_per_burst,
                .period = cfg_.pulse_spacing,
                .width = kInjectedPulseWidth});
    note_activation();
  }

  T1Config cfg_;
  sim::Rng rng_;
  std::unique_ptr<PulseGenerator> gen_x_;
  std::unique_ptr<PulseGenerator> gen_y_;
  bool next_x_ = true;
  std::uint64_t generation_ = 0;
};

// --- T2: constant extrusion masking ------------------------------------------

class T2ExtrusionMask final : public Trojan {
 public:
  T2ExtrusionMask(Fpga& fpga, T2Config cfg) : Trojan(fpga), cfg_(cfg) {}

  [[nodiscard]] TrojanId id() const override { return TrojanId::kT2; }

 private:
  void activate() override {
    accumulator_ = 0.0;
    fpga_.path(sim::Pin::kEStep).set_pulse_filter([this] {
      accumulator_ += cfg_.keep_ratio;
      if (accumulator_ >= 1.0) {
        accumulator_ -= 1.0;
        return true;
      }
      note_activation();
      return false;
    });
  }
  void deactivate() override {
    fpga_.path(sim::Pin::kEStep).set_pulse_filter(nullptr);
  }

  T2Config cfg_;
  double accumulator_ = 0.0;
};

// --- T3: retraction/extrusion tamper during Y motion --------------------------

class T3RetractionTamper final : public Trojan {
 public:
  T3RetractionTamper(Fpga& fpga, T3Config cfg) : Trojan(fpga), cfg_(cfg) {
    // Watch Y stepping continuously; the handler checks enabled().
    fpga_.fw_side().step(sim::Axis::kY).on_rising([this](sim::Tick t) {
      last_y_step_ = t;
      if (!enabled() || !cfg_.over_extrude) return;
      if (++y_steps_ % cfg_.y_steps_per_injection == 0) {
        fpga_.path(sim::Pin::kEStep).inject_pulse(kInjectedPulseWidth);
        note_activation();
      }
    });
  }

  [[nodiscard]] TrojanId id() const override { return TrojanId::kT3; }

 private:
  void activate() override {
    if (cfg_.over_extrude) return;  // injection handled by the Y listener
    fpga_.path(sim::Pin::kEStep).set_pulse_filter([this] {
      const sim::Tick now = fpga_.scheduler().now();
      if (last_y_step_ == 0 || now - last_y_step_ > cfg_.y_active_window) {
        return true;  // Y idle: leave extrusion alone
      }
      accumulator_ += cfg_.drop_fraction;
      if (accumulator_ >= 1.0) {
        accumulator_ -= 1.0;
        note_activation();
        return false;
      }
      return true;
    });
  }
  void deactivate() override {
    if (!cfg_.over_extrude) {
      fpga_.path(sim::Pin::kEStep).set_pulse_filter(nullptr);
    }
  }

  T3Config cfg_;
  sim::Tick last_y_step_ = 0;
  std::uint64_t y_steps_ = 0;
  double accumulator_ = 0.0;
};

// --- T4: Z-wobble (XY shift on random layer increments) -----------------------

class T4ZWobble final : public Trojan {
 public:
  T4ZWobble(Fpga& fpga, T4Config cfg)
      : Trojan(fpga),
        cfg_(cfg),
        rng_(cfg.seed),
        gen_x_(make_generator(fpga, sim::Pin::kXStep)),
        gen_y_(make_generator(fpga, sim::Pin::kYStep)) {
    fpga_.layers().on_layer([this](std::uint64_t) {
      if (!enabled()) return;
      if (!rng_.chance(cfg_.layer_probability)) return;
      const PulseTrain train{.count = cfg_.shift_steps,
                             .period = cfg_.pulse_spacing,
                             .width = kInjectedPulseWidth};
      gen_x_->burst(train);
      gen_y_->burst(train);
      note_activation();
    });
  }

  [[nodiscard]] TrojanId id() const override { return TrojanId::kT4; }

 private:
  void activate() override {}
  void deactivate() override {}

  T4Config cfg_;
  sim::Rng rng_;
  std::unique_ptr<PulseGenerator> gen_x_;
  std::unique_ptr<PulseGenerator> gen_y_;
};

// --- T5: Z shift (delamination / adhesion failure) ----------------------------

class T5ZShift final : public Trojan {
 public:
  T5ZShift(Fpga& fpga, T5Config cfg)
      : Trojan(fpga),
        cfg_(cfg),
        gen_z_(make_generator(fpga, sim::Pin::kZStep)) {
    fpga_.layers().on_layer([this](std::uint64_t layer) {
      if (!enabled() || cfg_.mode != T5Config::Mode::kEveryNLayers) return;
      if (cfg_.every_n_layers == 0 || layer % cfg_.every_n_layers != 0) {
        return;
      }
      lift();
    });
  }

  [[nodiscard]] TrojanId id() const override { return TrojanId::kT5; }

 private:
  void activate() override {
    if (cfg_.mode == T5Config::Mode::kAtStart) lift();
  }
  void deactivate() override {}

  void lift() {
    // Force DIR up so the shift always opens a gap (delaminates) rather
    // than crashing into the part; release once the burst has drained.
    auto& dir = fpga_.path(sim::Pin::kZDir);
    dir.force(true);
    gen_z_->burst({.count = cfg_.shift_steps,
                   .period = cfg_.pulse_spacing,
                   .width = kInjectedPulseWidth});
    const sim::Tick tail =
        static_cast<sim::Tick>(cfg_.shift_steps) * cfg_.pulse_spacing +
        sim::us(10);
    fpga_.scheduler().schedule_in(tail,
                                  [&dir] { dir.force(std::nullopt); });
    note_activation();
  }

  T5Config cfg_;
  std::unique_ptr<PulseGenerator> gen_z_;
};

// --- T6: heater denial of service ---------------------------------------------

class T6HeaterDos final : public Trojan {
 public:
  T6HeaterDos(Fpga& fpga, T6Config cfg) : Trojan(fpga), cfg_(cfg) {}

  [[nodiscard]] TrojanId id() const override { return TrojanId::kT6; }

 private:
  void activate() override {
    if (cfg_.hotend) fpga_.path(sim::Pin::kHotendHeat).force(false);
    if (cfg_.bed) fpga_.path(sim::Pin::kBedHeat).force(false);
    note_activation();
  }
  void deactivate() override {
    if (cfg_.hotend) fpga_.path(sim::Pin::kHotendHeat).force(std::nullopt);
    if (cfg_.bed) fpga_.path(sim::Pin::kBedHeat).force(std::nullopt);
  }

  T6Config cfg_;
};

// --- T7: forced thermal runaway -------------------------------------------------

class T7ThermalRunaway final : public Trojan {
 public:
  T7ThermalRunaway(Fpga& fpga, T7Config cfg) : Trojan(fpga), cfg_(cfg) {}

  [[nodiscard]] TrojanId id() const override { return TrojanId::kT7; }

 private:
  void activate() override {
    // 100% duty, ignoring everything the firmware does - including its
    // thermal-runaway panic, which only turns off *its own* gate drive.
    if (cfg_.hotend) fpga_.path(sim::Pin::kHotendHeat).force(true);
    if (cfg_.bed) fpga_.path(sim::Pin::kBedHeat).force(true);
    note_activation();
  }
  void deactivate() override {
    if (cfg_.hotend) fpga_.path(sim::Pin::kHotendHeat).force(std::nullopt);
    if (cfg_.bed) fpga_.path(sim::Pin::kBedHeat).force(std::nullopt);
  }

  T7Config cfg_;
};

// --- T8: stepper driver deactivation --------------------------------------------

class T8StepperDisable final : public Trojan {
 public:
  T8StepperDisable(Fpga& fpga, T8Config cfg) : Trojan(fpga), cfg_(cfg) {}

  [[nodiscard]] TrojanId id() const override { return TrojanId::kT8; }

 private:
  void activate() override {
    const auto gen = ++generation_;
    schedule_cycle(gen);
  }
  void deactivate() override {
    ++generation_;
    release();
  }

  void schedule_cycle(std::uint64_t gen) {
    fpga_.scheduler().schedule_in(
        sim::from_seconds(cfg_.period_s), [this, gen] {
          if (gen != generation_ || !enabled()) return;
          // /EN forced high = drivers off; commanded steps are lost.
          for (std::size_t i = 0; i < 4; ++i) {
            if (cfg_.axes[i]) {
              fpga_.path(sim::enable_pin(static_cast<sim::Axis>(i)))
                  .force(true);
            }
          }
          note_activation();
          fpga_.scheduler().schedule_in(
              sim::from_seconds(cfg_.off_duration_s), [this, gen] {
                if (gen != generation_) return;
                release();
                schedule_cycle(gen);
              });
        });
  }

  void release() {
    for (std::size_t i = 0; i < 4; ++i) {
      if (cfg_.axes[i]) {
        fpga_.path(sim::enable_pin(static_cast<sim::Axis>(i)))
            .force(std::nullopt);
      }
    }
  }

  T8Config cfg_;
  std::uint64_t generation_ = 0;
};

// --- T9: part-fan tamper ----------------------------------------------------------

class T9FanTamper final : public Trojan {
 public:
  T9FanTamper(Fpga& fpga, T9Config cfg) : Trojan(fpga), cfg_(cfg) {}

  [[nodiscard]] TrojanId id() const override { return TrojanId::kT9; }

 private:
  void activate() override {
    meter_ = std::make_unique<sim::DutyMeter>(
        fpga_.fw_side().wire(sim::Pin::kFan));
    (void)meter_->sample();  // discard history before the Trojan engaged
    const auto gen = ++generation_;
    window(gen);
    note_activation();
  }
  void deactivate() override {
    ++generation_;
    meter_.reset();
    fpga_.path(sim::Pin::kFan).force(std::nullopt);
  }

  void window(std::uint64_t gen) {
    if (gen != generation_ || !enabled()) return;
    auto& path = fpga_.path(sim::Pin::kFan);
    const double duty_in = meter_->sample();
    const double duty_out =
        std::clamp(duty_in * cfg_.duty_scale + cfg_.duty_offset, 0.0, 1.0);
    // Re-modulate: drive the output gate with our own PWM for this window.
    path.force(duty_out > 0.0);
    if (duty_out > 0.0 && duty_out < 1.0) {
      const auto high = static_cast<sim::Tick>(
          duty_out * static_cast<double>(cfg_.window));
      fpga_.scheduler().schedule_in(high, [this, gen, &path] {
        if (gen != generation_) return;
        path.force(false);
      });
    }
    fpga_.scheduler().schedule_in(cfg_.window,
                                  [this, gen] { window(gen); });
  }

  T9Config cfg_;
  std::unique_ptr<sim::DutyMeter> meter_;
  std::uint64_t generation_ = 0;
};

// --- T10: analog thermistor spoof (extension) -----------------------------------

class T10ThermistorSpoof final : public Trojan {
 public:
  T10ThermistorSpoof(Fpga& fpga, T10Config cfg) : Trojan(fpga), cfg_(cfg) {}

  [[nodiscard]] TrojanId id() const override { return TrojanId::kT10; }

 private:
  void activate() override {
    const auto spoof = [this](double adc_counts) {
      // Reported temperature = actual - understate: re-synthesize the
      // divider voltage a cooler thermistor would produce.
      const double actual = therm_.temperature(adc_counts);
      return therm_.adc_counts(actual - cfg_.understate_c);
    };
    if (cfg_.hotend) {
      fpga_.set_analog_transform(sim::APin::kThermHotend, spoof);
    }
    if (cfg_.bed) fpga_.set_analog_transform(sim::APin::kThermBed, spoof);
    note_activation();
  }
  void deactivate() override {
    if (cfg_.hotend) {
      fpga_.set_analog_transform(sim::APin::kThermHotend, nullptr);
    }
    if (cfg_.bed) fpga_.set_analog_transform(sim::APin::kThermBed, nullptr);
  }

  T10Config cfg_;
  sim::Thermistor therm_{};
};

}  // namespace

// --- Base / controller ---------------------------------------------------------

void Trojan::set_enabled(bool enabled) {
  if (enabled == enabled_) return;
  enabled_ = enabled;
  if (enabled_) {
    activate();
  } else {
    deactivate();
  }
}

TrojanController::TrojanController(Fpga& fpga) : fpga_(fpga) {}

void TrojanController::arm(const TrojanSuiteConfig& config) {
  if (armed_) throw Error("TrojanController::arm: already armed");
  armed_ = true;
  // Trojan hooks filter, force and inject on the paths at any time, so
  // an armed board forwards every fall as an event.
  for (std::size_t i = 0; i < sim::kPinCount; ++i) {
    fpga_.path(static_cast<sim::Pin>(i)).keep_fall_events();
  }
  if (config.t1) {
    add(std::make_unique<T1AxisShift>(fpga_, *config.t1),
        config.t1->delay_after_homing_s);
  }
  if (config.t2) {
    add(std::make_unique<T2ExtrusionMask>(fpga_, *config.t2),
        config.t2->delay_after_homing_s);
  }
  if (config.t3) {
    add(std::make_unique<T3RetractionTamper>(fpga_, *config.t3),
        config.t3->delay_after_homing_s);
  }
  if (config.t4) {
    add(std::make_unique<T4ZWobble>(fpga_, *config.t4),
        config.t4->delay_after_homing_s);
  }
  if (config.t5) {
    add(std::make_unique<T5ZShift>(fpga_, *config.t5),
        config.t5->delay_after_homing_s);
  }
  if (config.t6) {
    add(std::make_unique<T6HeaterDos>(fpga_, *config.t6),
        config.t6->delay_after_homing_s);
  }
  if (config.t7) {
    add(std::make_unique<T7ThermalRunaway>(fpga_, *config.t7),
        config.t7->delay_after_homing_s);
  }
  if (config.t8) {
    add(std::make_unique<T8StepperDisable>(fpga_, *config.t8),
        config.t8->delay_after_homing_s);
  }
  if (config.t9) {
    add(std::make_unique<T9FanTamper>(fpga_, *config.t9),
        config.t9->delay_after_homing_s);
  }
  if (config.t10) {
    add(std::make_unique<T10ThermistorSpoof>(fpga_, *config.t10),
        config.t10->delay_after_homing_s);
  }
}

void TrojanController::add(std::unique_ptr<Trojan> trojan,
                           double delay_after_homing_s) {
  Trojan* raw = trojan.get();
  trojans_.push_back(std::move(trojan));
  fpga_.homing().on_homed([this, raw, delay_after_homing_s](sim::Tick) {
    fpga_.scheduler().schedule_in(
        sim::from_seconds(std::max(delay_after_homing_s, 0.0)),
        [raw] { raw->set_enabled(true); });
  });
}

Trojan* TrojanController::find(TrojanId id) {
  for (auto& t : trojans_) {
    if (t->id() == id) return t.get();
  }
  return nullptr;
}

}  // namespace offramps::core
