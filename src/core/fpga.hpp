// Emulated Cmod-A7 fabric: the reconfigurable heart of the OFFRAMPS board.
//
// Owns one `SignalPath` per intercepted net (firmware->printer control
// signals and printer->firmware endstops), the monitoring modules of
// section V (homing detector, axis trackers, UART reporter, layer
// monitor), and exposes the hooks the Trojan control module uses.
//
// Per-net propagation delays model the level shifters plus fabric routing;
// the worst case lands on Y_DIR at 13 ns, the 1 ns-grid rounding of the
// paper's reported 12.923 ns maximum.
//
// The fabric's one setting is the UART transaction period (FpgaOptions);
// the layer monitor's 500 ms quiet gap and the host link's 115,200 baud
// are constants in fpga.cpp.
#pragma once

#include <array>
#include <memory>

#include "core/monitor.hpp"
#include "core/serial.hpp"
#include "core/signal_path.hpp"
#include "core/uart.hpp"
#include "sim/pins.hpp"
#include "sim/scheduler.hpp"

namespace offramps::core {

/// Fabric construction parameters.
struct FpgaOptions {
  /// UART transaction period (paper: 0.1 s).
  sim::Tick uart_period = UartReporter::kDefaultPeriod;
};

/// Default propagation delay (level shift + routing) for a net.
sim::Tick default_prop_delay(sim::Pin pin);

/// The FPGA and its gateware.
class Fpga {
 public:
  /// `fw_side` is the Arduino-facing bank, `printer_side` the RAMPS-facing
  /// bank.  Paths are created for every digital net, oriented per the
  /// net's natural direction.
  Fpga(sim::Scheduler& sched, sim::PinBank& fw_side,
       sim::PinBank& printer_side, FpgaOptions options = {});

  Fpga(const Fpga&) = delete;
  Fpga& operator=(const Fpga&) = delete;

  /// Routes all nets through the fabric (MITM mode) or isolates the
  /// outputs (bypass/record modes, where the board's jumpers own the nets).
  void set_mitm_active(bool active);
  [[nodiscard]] bool mitm_active() const { return mitm_active_; }

  /// Enables or disables the monitoring gateware (disabled when the
  /// jumpers bypass the FPGA entirely and it sees no signals).
  void set_monitors_enabled(bool enabled);

  /// The routed path for a net.
  [[nodiscard]] SignalPath& path(sim::Pin pin) {
    return *paths_[static_cast<std::size_t>(pin)];
  }
  [[nodiscard]] const SignalPath& path(sim::Pin pin) const {
    return *paths_[static_cast<std::size_t>(pin)];
  }

  [[nodiscard]] AxisTracker& tracker(sim::Axis a) {
    return *trackers_[static_cast<std::size_t>(a)];
  }
  [[nodiscard]] HomingDetector& homing() { return *homing_; }
  [[nodiscard]] LayerMonitor& layers() { return *layers_; }
  [[nodiscard]] UartReporter& uart() { return *uart_; }

  /// The physical TX net carrying transactions to the host (idle high).
  [[nodiscard]] sim::Wire& uart_tx_line() { return *uart_tx_line_; }
  /// The serial transmitter feeding that net.
  [[nodiscard]] UartTx& uart_phy() { return *uart_phy_; }

  /// Installs (or clears, with nullptr) a transform on an analog net
  /// routed through the XADC->DAC path (board section III-C-1): in MITM
  /// mode the firmware reads transform(adc_counts) instead of the real
  /// divider voltage.  This is the hook Trojan T10 uses.
  using AnalogTransform = std::function<double(double)>;
  void set_analog_transform(sim::APin pin, AnalogTransform transform) {
    analog_transforms_[static_cast<std::size_t>(pin)] =
        std::move(transform);
  }
  /// Applies the installed transform (identity when none).
  [[nodiscard]] double apply_analog(sim::APin pin, double adc_counts) const {
    const auto& t = analog_transforms_[static_cast<std::size_t>(pin)];
    return t ? t(adc_counts) : adc_counts;
  }

  [[nodiscard]] sim::Scheduler& scheduler() { return sched_; }
  [[nodiscard]] sim::PinBank& fw_side() { return fw_side_; }
  [[nodiscard]] sim::PinBank& printer_side() { return printer_side_; }

  /// Largest configured propagation delay across all nets, and its net -
  /// the overhead evaluation's headline number (paper section V-B).
  [[nodiscard]] sim::Tick max_prop_delay() const;
  [[nodiscard]] sim::Pin max_prop_delay_pin() const;

 private:
  sim::Scheduler& sched_;
  sim::PinBank& fw_side_;
  sim::PinBank& printer_side_;
  bool mitm_active_ = false;

  std::array<std::unique_ptr<SignalPath>, sim::kPinCount> paths_;
  std::array<std::unique_ptr<AxisTracker>, 4> trackers_;
  std::unique_ptr<HomingDetector> homing_;
  std::unique_ptr<LayerMonitor> layers_;
  std::unique_ptr<UartReporter> uart_;
  std::unique_ptr<sim::Wire> uart_tx_line_;
  std::unique_ptr<UartTx> uart_phy_;
  std::array<AnalogTransform, sim::kAPinCount> analog_transforms_{};
};

}  // namespace offramps::core
