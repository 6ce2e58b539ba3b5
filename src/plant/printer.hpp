// The assembled physical printer: everything downstream of the RAMPS
// board.  Consumes the RAMPS-side pin bank (whatever signals actually
// arrive there, post-OFFRAMPS) and produces the feedback signals the
// firmware needs (endstops, thermistor ADC values).
#pragma once

#include <array>
#include <memory>

#include "plant/axis.hpp"
#include "plant/deposition.hpp"
#include "plant/motor.hpp"
#include "plant/power.hpp"
#include "plant/thermal.hpp"
#include "sim/pins.hpp"
#include "sim/rng.hpp"

namespace offramps::plant {

/// Mechanical/electrical parameters of the machine.
struct PrinterParams {
  /// Steps per mm as configured by the A4988 microstep jumpers + mechanics;
  /// must match the firmware's belief for dimensionally correct parts.
  std::array<double, 4> steps_per_mm = {100.0, 100.0, 400.0, 280.0};
  std::array<double, 3> axis_length_mm = {250.0, 210.0, 210.0};
  /// Unknown carriage positions at power-on.
  std::array<double, 3> initial_position_mm = {60.0, 55.0, 10.0};
  HeaterParams hotend = hotend_params();
  HeaterParams bed = bed_params();
  std::uint32_t deposition_sample_every = 8;
  std::uint64_t noise_seed = 0x9a57;
};

/// The full plant, wired to a RAMPS-side pin bank.
class Printer {
 public:
  Printer(sim::Scheduler& sched, sim::PinBank& ramps, PrinterParams params);

  Printer(const Printer&) = delete;
  Printer& operator=(const Printer&) = delete;

  [[nodiscard]] StepperMotor& motor(sim::Axis a) {
    return *motors_[static_cast<std::size_t>(a)];
  }
  [[nodiscard]] const StepperMotor& motor(sim::Axis a) const {
    return *motors_[static_cast<std::size_t>(a)];
  }
  [[nodiscard]] CarriageAxis& axis(sim::Axis a);
  [[nodiscard]] ExtruderDrive& extruder() { return *extruder_; }
  [[nodiscard]] HeaterPlant& hotend() { return *hotend_; }
  [[nodiscard]] HeaterPlant& bed() { return *bed_; }
  [[nodiscard]] FanPlant& fan() { return *fan_; }
  [[nodiscard]] DepositionRecorder& deposition() { return *deposition_; }
  [[nodiscard]] const DepositionRecorder& deposition() const {
    return *deposition_;
  }
  [[nodiscard]] const PrinterParams& params() const { return params_; }

  /// The printer's 24 V supply (motors + heaters).
  [[nodiscard]] PowerRail& motor_rail() { return motor_rail_; }
  /// The controller's 5 V logic supply.
  [[nodiscard]] PowerRail& logic_rail() { return logic_rail_; }
  [[nodiscard]] PowerIntegrity& power() { return *power_; }

 private:
  PrinterParams params_;
  sim::Rng noise_;
  PowerRail motor_rail_{"24V", 24.0};
  PowerRail logic_rail_{"5V", 5.0};
  std::unique_ptr<PowerIntegrity> power_;
  std::array<std::unique_ptr<StepperMotor>, 4> motors_;
  std::array<std::unique_ptr<CarriageAxis>, 3> axes_;
  std::unique_ptr<ExtruderDrive> extruder_;
  std::unique_ptr<HeaterPlant> hotend_;
  std::unique_ptr<HeaterPlant> bed_;
  std::unique_ptr<FanPlant> fan_;
  std::unique_ptr<DepositionRecorder> deposition_;
};

}  // namespace offramps::plant
