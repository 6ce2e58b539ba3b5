#include "core/fpga.hpp"

namespace offramps::core {

namespace {

/// Quiet gap used by the layer monitor to split Z bursts into layers.
constexpr sim::Tick kLayerQuietGap = sim::ms(500);
/// Baud rate of the host serial link carrying the transactions.
constexpr std::uint32_t kSerialBaud = 115'200;

}  // namespace

sim::Tick default_prop_delay(sim::Pin pin) {
  // Level shifter pair plus fabric routing: 8-13 ns depending on the route
  // the net takes across the die.  Y_DIR carries the longest route; its
  // 13 ns is the 1 ns-grid rounding of the paper's measured 12.923 ns
  // worst case.
  if (pin == sim::Pin::kYDir) return sim::ns(13);
  const auto idx = static_cast<std::size_t>(pin);
  return sim::ns(8 + (idx * 37) % 5);  // deterministic 8..12 ns spread
}

Fpga::Fpga(sim::Scheduler& sched, sim::PinBank& fw_side,
           sim::PinBank& printer_side, FpgaOptions options)
    : sched_(sched), fw_side_(fw_side), printer_side_(printer_side) {
  for (std::size_t i = 0; i < sim::kPinCount; ++i) {
    const auto pin = static_cast<sim::Pin>(i);
    const bool fw_drives =
        sim::pin_direction(pin) == sim::PinDirection::kFirmwareToPrinter;
    sim::Wire& in = fw_drives ? fw_side.wire(pin) : printer_side.wire(pin);
    sim::Wire& out = fw_drives ? printer_side.wire(pin) : fw_side.wire(pin);
    paths_[i] =
        std::make_unique<SignalPath>(sched, in, out, default_prop_delay(pin));
  }

  // Monitoring gateware observes the FPGA's *input* side of each net: the
  // firmware bank for control signals, the printer bank for endstops.
  for (const auto axis : sim::kAllAxes) {
    trackers_[static_cast<std::size_t>(axis)] = std::make_unique<AxisTracker>(
        sched, fw_side.step(axis), fw_side.dir(axis));
  }
  homing_ = std::make_unique<HomingDetector>(
      sched, printer_side.min_endstop(sim::Axis::kX),
      printer_side.min_endstop(sim::Axis::kY),
      printer_side.min_endstop(sim::Axis::kZ));
  homing_->set_enabled(false);
  layers_ = std::make_unique<LayerMonitor>(
      sched, fw_side.step(sim::Axis::kZ), kLayerQuietGap);
  uart_ = std::make_unique<UartReporter>(
      sched,
      std::array<AxisTracker*, 4>{&tracker(sim::Axis::kX),
                                  &tracker(sim::Axis::kY),
                                  &tracker(sim::Axis::kZ),
                                  &tracker(sim::Axis::kE)},
      *homing_, options.uart_period);

  // The host link: every emitted transaction is serialized onto the TX
  // net at the configured baud rate, as a framed (magic + CRC) burst so
  // the host side can survive wire corruption.
  uart_tx_line_ = std::make_unique<sim::Wire>(sched, "fpga.UART_TX", true);
  uart_phy_ = std::make_unique<UartTx>(sched, *uart_tx_line_, kSerialBaud);
  uart_->on_frame([this](const std::vector<std::uint8_t>& bytes) {
    uart_phy_->send(bytes);
  });
}

void Fpga::set_mitm_active(bool active) {
  mitm_active_ = active;
  for (auto& p : paths_) p->set_active(active);
}

void Fpga::set_monitors_enabled(bool enabled) {
  homing_->set_enabled(enabled);
  for (auto& t : trackers_) t->set_connected(enabled);
}

sim::Tick Fpga::max_prop_delay() const {
  sim::Tick best = 0;
  for (const auto& p : paths_) best = std::max(best, p->prop_delay());
  return best;
}

sim::Pin Fpga::max_prop_delay_pin() const {
  sim::Tick best = 0;
  sim::Pin pin = sim::Pin::kXStep;
  for (std::size_t i = 0; i < sim::kPinCount; ++i) {
    if (paths_[i]->prop_delay() > best) {
      best = paths_[i]->prop_delay();
      pin = static_cast<sim::Pin>(i);
    }
  }
  return pin;
}

}  // namespace offramps::core
