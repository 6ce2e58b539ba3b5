// Power delivery model (paper sections III-C-5 and VI "Limitations").
//
// The OFFRAMPS board deliberately separates three supplies: the printer's
// 24 V rail (RAMPS: motors + heaters), the Arduino's 5 V, and the FPGA's
// own supply - and the paper notes the platform "can also support
// undervolting and brown-out attacks", left unexplored there.  This
// module models the electrical consequences so that exploration is
// possible here:
//
//   * heater power scales with V^2 (resistive elements),
//   * stepper drivers lose torque as the motor rail sags and start
//     skipping steps below a threshold, stalling entirely further down,
//   * the logic rail resets the MCU (firmware kill) under deep sag.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/rng.hpp"
#include "sim/scheduler.hpp"

namespace offramps::plant {

/// One supply rail with a nominal voltage.
class PowerRail {
 public:
  using SagCallback = std::function<void(double volts)>;

  PowerRail(std::string name, double nominal_v)
      : name_(std::move(name)), nominal_v_(nominal_v), volts_(nominal_v) {}

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] double nominal_v() const { return nominal_v_; }
  [[nodiscard]] double volts() const { return volts_; }
  /// Fraction of nominal (1.0 = healthy).
  [[nodiscard]] double level() const { return volts_ / nominal_v_; }
  [[nodiscard]] double min_seen_v() const { return min_seen_; }

  void set_volts(double v) {
    volts_ = v;
    min_seen_ = std::min(min_seen_, v);
    for (const auto& cb : listeners_) cb(v);
  }
  void restore() { set_volts(nominal_v_); }
  void on_change(SagCallback cb) { listeners_.push_back(std::move(cb)); }

 private:
  std::string name_;
  double nominal_v_;
  double volts_;
  double min_seen_ = 1e9;
  std::vector<SagCallback> listeners_;
};

/// Derating calculator shared by the plant components.
class PowerIntegrity {
 public:
  PowerIntegrity(PowerRail& motor_rail, PowerRail& logic_rail,
                 std::uint64_t seed = 0xB0B0)
      : motor_rail_(motor_rail), logic_rail_(logic_rail), rng_(seed) {}

  PowerIntegrity(const PowerIntegrity&) = delete;
  PowerIntegrity& operator=(const PowerIntegrity&) = delete;

  /// Heater power multiplier at the present motor-rail voltage.
  [[nodiscard]] double heater_derate() const {
    const double l = motor_rail_.level();
    return l * l;
  }

  /// Draws whether one motor step is lost to undervoltage right now.
  [[nodiscard]] bool step_lost() {
    const double l = motor_rail_.level();
    if (l >= kSkipLevel) return false;
    if (l <= kStallLevel) return true;
    const double p = (kSkipLevel - l) / (kSkipLevel - kStallLevel);
    return rng_.chance(p);
  }

  /// True when the logic rail is too low for the MCU.
  [[nodiscard]] bool mcu_brownout() const {
    return logic_rail_.level() < kMcuBrownoutLevel;
  }

  [[nodiscard]] PowerRail& motor_rail() { return motor_rail_; }
  [[nodiscard]] PowerRail& logic_rail() { return logic_rail_; }

 private:
  /// Below this fraction of nominal motor-rail voltage, drivers begin to
  /// skip: each step is lost with probability growing linearly toward
  /// `kStallLevel`, where motion stops entirely.
  static constexpr double kSkipLevel = 0.75;
  static constexpr double kStallLevel = 0.5;
  /// Logic brown-out: below this fraction the MCU resets.
  static constexpr double kMcuBrownoutLevel = 0.7;

  PowerRail& motor_rail_;
  PowerRail& logic_rail_;
  sim::Rng rng_;
};

}  // namespace offramps::plant
