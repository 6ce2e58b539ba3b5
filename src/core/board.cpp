#include "core/board.hpp"

namespace offramps::core {

namespace {

/// Straight-jumper propagation delay (a trace, effectively instant).
constexpr sim::Tick kJumperDelay = sim::ns(1);
/// Analog (thermistor) pass-through delay via the XADC+DAC path in MITM
/// mode.
constexpr sim::Tick kAnalogMitmDelay = sim::us(2);

}  // namespace

Board::Board(sim::Scheduler& sched, BoardOptions options, RouteMode initial)
    : sched_(sched),
      arduino_(sched, "ard."),
      ramps_(sched, "rmp."),
      fpga_(sched, arduino_, ramps_, options.fpga),
      trojans_(fpga_) {
  // Analog thermistor nets: always forwarded RAMPS -> Arduino; the only
  // mode difference is the conversion latency of the XADC+DAC detour.
  for (std::size_t i = 0; i < sim::kAPinCount; ++i) {
    const auto apin = static_cast<sim::APin>(i);
    ramps_.analog(apin).on_change([this, apin](double v, sim::Tick) {
      if (mode_ == RouteMode::kFpgaMitm) {
        // XADC sampling + fabric transform + DAC output: the firmware
        // reads whatever the FPGA chooses to synthesize.
        const double out = fpga_.apply_analog(apin, v);
        sched_.schedule_in(kAnalogMitmDelay, [this, apin, out] {
          arduino_.analog(apin).set(out);
        });
      } else {
        arduino_.analog(apin).set(v);
      }
    });
  }
  set_route(initial);
}

void Board::connect_direct() {
  direct_.clear();
  direct_.reserve(sim::kPinCount);
  for (std::size_t i = 0; i < sim::kPinCount; ++i) {
    const auto pin = static_cast<sim::Pin>(i);
    const bool fw_drives =
        sim::pin_direction(pin) == sim::PinDirection::kFirmwareToPrinter;
    sim::Wire& src = fw_drives ? arduino_.wire(pin) : ramps_.wire(pin);
    sim::Wire& dst = fw_drives ? ramps_.wire(pin) : arduino_.wire(pin);
    direct_.push_back(sim::connect(src, dst, kJumperDelay));
  }
}

void Board::set_route(RouteMode mode) {
  mode_ = mode;
  switch (mode) {
    case RouteMode::kDirect:
      fpga_.set_mitm_active(false);
      fpga_.set_monitors_enabled(false);
      connect_direct();
      break;
    case RouteMode::kFpgaRecord:
      fpga_.set_mitm_active(false);
      fpga_.set_monitors_enabled(true);
      connect_direct();
      break;
    case RouteMode::kFpgaMitm:
      direct_.clear();
      fpga_.set_mitm_active(true);
      fpga_.set_monitors_enabled(true);
      break;
  }
}

}  // namespace offramps::core
