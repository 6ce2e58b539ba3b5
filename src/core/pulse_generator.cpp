#include "core/pulse_generator.hpp"

#include "sim/error.hpp"

namespace offramps::core {

void PulseGenerator::burst(const PulseTrain& train) {
  if (train.width == 0 || train.period <= train.width) {
    throw Error("PulseGenerator: period must exceed pulse width");
  }
  for (std::uint32_t i = 0; i < train.count; ++i) {
    const sim::Tick at = sim::align_to_fpga_clock(
        sched_.now() + static_cast<sim::Tick>(i) * train.period);
    sched_.schedule_at(at, [this, width = train.width] {
      path_.inject_pulse(width);
      ++emitted_;
    });
  }
}

}  // namespace offramps::core
