#include "plant/printer.hpp"

#include "sim/error.hpp"

namespace offramps::plant {

Printer::Printer(sim::Scheduler& sched, sim::PinBank& ramps,
                 PrinterParams params)
    : params_(params), noise_(params.noise_seed) {
  power_ = std::make_unique<PowerIntegrity>(motor_rail_, logic_rail_,
                                            params_.noise_seed ^ 0xB0B0);
  for (std::size_t i = 0; i < 4; ++i) {
    const auto axis = static_cast<sim::Axis>(i);
    motors_[i] = std::make_unique<StepperMotor>(
        ramps.step(axis), ramps.dir(axis), ramps.enable(axis),
        power_.get());
  }
  for (std::size_t i = 0; i < 3; ++i) {
    const auto axis = static_cast<sim::Axis>(i);
    axes_[i] = std::make_unique<CarriageAxis>(
        *motors_[i], ramps.min_endstop(axis), params_.steps_per_mm[i],
        params_.axis_length_mm[i], params_.initial_position_mm[i]);
  }
  extruder_ = std::make_unique<ExtruderDrive>(*motors_[3],
                                              params_.steps_per_mm[3]);
  const auto derate = [this] { return power_->heater_derate(); };
  hotend_ = std::make_unique<HeaterPlant>(
      sched, ramps.wire(sim::Pin::kHotendHeat),
      ramps.analog(sim::APin::kThermHotend), params_.hotend, &noise_,
      sim::ms(10), derate);
  bed_ = std::make_unique<HeaterPlant>(sched, ramps.wire(sim::Pin::kBedHeat),
                                       ramps.analog(sim::APin::kThermBed),
                                       params_.bed, &noise_, sim::ms(10),
                                       derate);
  fan_ = std::make_unique<FanPlant>(sched, ramps.wire(sim::Pin::kFan));
  deposition_ = std::make_unique<DepositionRecorder>(
      *motors_[3], *axes_[0], *axes_[1], *axes_[2], params_.steps_per_mm[3],
      params_.deposition_sample_every);
}

CarriageAxis& Printer::axis(sim::Axis a) {
  if (a == sim::Axis::kE) throw Error("Printer::axis: E is not positional");
  return *axes_[static_cast<std::size_t>(a)];
}

}  // namespace offramps::plant
