// Thermal manager: the firmware side of temperature control, modelled on
// Marlin's temperature.cpp.
//
//  * Periodic control loop (default 100 ms): sample the thermistor ADC,
//    convert counts to degrees, run PID (hotend) or bang-bang (bed), drive
//    the heater MOSFET gate with soft PWM.
//  * Safety: min/max temperature cutoffs, "heating failed" watch during
//    initial heat-up, and thermal-runaway protection once stable - all of
//    which Trojans T6/T7 (paper Table I) interact with.
#pragma once

#include <array>
#include <functional>
#include <string>

#include "fw/config.hpp"
#include "fw/pwm.hpp"
#include "sim/scheduler.hpp"
#include "sim/thermistor.hpp"
#include "sim/wire.hpp"

namespace offramps::fw {

/// The two heat zones of the machine.
enum class Heater { kHotend = 0, kBed = 1 };

/// Why the thermal manager killed the machine.
enum class ThermalFault {
  kNone,
  kMaxTemp,         // over the configured maximum
  kMinTemp,         // under the minimum (sensor open/short)
  kHeatingFailed,   // no progress during initial heat-up
  kThermalRunaway,  // temperature fell away from a reached target
};

/// Human-readable fault name (Marlin-style error strings).
const char* thermal_fault_name(ThermalFault f);

/// Firmware-side closed-loop heater control for hotend and bed.
class ThermalManager {
 public:
  /// Fired once on the first fault; the firmware kills the machine.
  using KillCallback = std::function<void(Heater, ThermalFault)>;

  ThermalManager(sim::Scheduler& sched, const Config& config,
                 sim::AnalogChannel& hotend_adc, sim::AnalogChannel& bed_adc,
                 sim::Wire& hotend_gate, sim::Wire& bed_gate,
                 KillCallback on_kill);

  ThermalManager(const ThermalManager&) = delete;
  ThermalManager& operator=(const ThermalManager&) = delete;

  /// Starts the periodic control loop.
  void start();

  /// Stops control and de-asserts both heater gates (firmware kill path).
  void shutdown();

  /// Sets a heater's target; 0 disables it.
  void set_target(Heater h, double celsius);

  [[nodiscard]] double target(Heater h) const { return zone(h).target_c; }
  /// Most recent converted temperature reading.
  [[nodiscard]] double current(Heater h) const { return zone(h).current_c; }
  /// Current PWM duty command in [0, 1].
  [[nodiscard]] double duty(Heater h) const { return zone(h).duty; }

  /// True once the reading is within the configured band of the target
  /// (used by M109/M190 waits).
  [[nodiscard]] bool at_target(Heater h) const;

  [[nodiscard]] ThermalFault fault() const { return fault_; }

 private:
  enum class WatchState { kInactive, kFirstHeating, kStable };

  struct Zone {
    const HeaterConfig* cfg = nullptr;
    sim::AnalogChannel* adc = nullptr;
    SoftPwm pwm;
    double target_c = 0.0;
    double current_c = 25.0;
    double duty = 0.0;
    // PID state.
    double integral = 0.0;
    double prev_temp_c = 25.0;
    // Protection state.
    WatchState watch = WatchState::kInactive;
    double watch_ref_c = 0.0;
    sim::Tick watch_deadline = 0;
    bool runaway_armed = false;
    sim::Tick runaway_deadline = 0;

    Zone(sim::Scheduler& sched, const HeaterConfig* c, sim::AnalogChannel* a,
         sim::Wire& gate, sim::Tick period)
        : cfg(c), adc(a), pwm(sched, gate, period) {}
  };

  [[nodiscard]] Zone& zone(Heater h) {
    return h == Heater::kHotend ? hotend_ : bed_;
  }
  [[nodiscard]] const Zone& zone(Heater h) const {
    return h == Heater::kHotend ? hotend_ : bed_;
  }

  void control_tick(std::uint64_t gen);
  void control_zone(Heater h);
  void check_protection(Heater h);
  void raise_fault(Heater h, ThermalFault f);
  [[nodiscard]] double compute_pid(Zone& z, double dt_s) const;

  sim::Scheduler& sched_;
  const Config& config_;
  sim::Thermistor therm_{};
  Zone hotend_;
  Zone bed_;
  KillCallback on_kill_;
  bool running_ = false;
  std::uint64_t generation_ = 0;
  ThermalFault fault_ = ThermalFault::kNone;
};

}  // namespace offramps::fw
