// Trojan control module and the nine Trojans of paper Table I.
//
// Each Trojan manipulates the MITM signal paths only - masking, injecting,
// or forcing pin-level waveforms - never any simulated machine state, so
// the downstream physics sees exactly what a compromised fabric would
// produce.  Trojans arm when the homing-detection FSM reports the start of
// a print (the paper's activation trigger) plus a per-Trojan delay, and
// can be enabled/disabled dynamically (the paper's multiplexed control).
//
//  T1  PM   loose belt        random X/Y step injection every period
//  T2  PM   under-extrusion   mask a fraction of E STEP pulses (Flaw3D-like)
//  T3  PM   retraction tamper over/under extrusion tied to Y activity
//  T4  PM   z-wobble          XY shift on random Z layer increments
//  T5  PM   layer shift       extra Z steps (delamination / adhesion fail)
//  T6  DoS  heater disable    force D8/D10 MOSFET gates off
//  T7  D    thermal runaway   force heater gates on, ignoring firmware
//  T8  DoS  driver disable    periodically deassert stepper /EN lines
//  T9  PM   fan tamper        re-modulate the part-fan PWM
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/fpga.hpp"
#include "core/pulse_generator.hpp"
#include "sim/rng.hpp"

namespace offramps::core {

/// Identifiers for the Trojan suite (T0 is the golden pass-through).
/// T1-T9 reproduce the paper's Table I; T10 is this library's extension
/// using the board's analog XADC->DAC interception path (the paper notes
/// the Trojan list "is not exhaustive of all possibilities").
enum class TrojanId : std::uint8_t {
  kT1, kT2, kT3, kT4, kT5, kT6, kT7, kT8, kT9, kT10
};

// --- Per-Trojan configuration ------------------------------------------------

/// T1: arbitrary X/Y shifts every `period` (paper: every ten seconds).
struct T1Config {
  sim::Tick period = sim::seconds(10);
  std::uint32_t pulses_per_burst = 100;   // 1 mm at 100 steps/mm
  sim::Tick pulse_spacing = sim::us(50);
  bool alternate_axes = true;             // X, Y, X, ... vs random choice
  double delay_after_homing_s = 0.0;
};

/// T2: constant under/over-extrusion by masking E STEP pulses (a 0.5 keep
/// ratio reproduces the paper's 50% flow reduction).
struct T2Config {
  double keep_ratio = 0.5;  // fraction of extruder pulses passed through
  double delay_after_homing_s = 0.0;
};

/// T3: extrusion tampering tied to Y-axis stepping.
struct T3Config {
  bool over_extrude = true;       // inject E pulses; false = mask E pulses
  std::uint32_t y_steps_per_injection = 12;  // over mode: 1 E pulse per N Y
  double drop_fraction = 0.5;     // under mode: E pulses dropped while Y live
  sim::Tick y_active_window = sim::ms(5);
  double delay_after_homing_s = 0.0;
};

/// T4: Z-wobble - small XY shift on random Z layer increments.
struct T4Config {
  double layer_probability = 0.4;        // chance a layer gets shifted
  std::uint32_t shift_steps = 40;        // 0.4 mm at 100 steps/mm
  sim::Tick pulse_spacing = sim::us(100);
  std::uint64_t seed = 0x7404;
  double delay_after_homing_s = 0.0;
};

/// T5: Z-layer shift - delamination (mid-print) or adhesion failure
/// (at-start) via injected Z steps.
struct T5Config {
  enum class Mode { kAtStart, kEveryNLayers };
  Mode mode = Mode::kEveryNLayers;
  std::uint32_t every_n_layers = 4;
  std::uint32_t shift_steps = 120;  // 0.3 mm at 400 steps/mm
  sim::Tick pulse_spacing = sim::us(200);
  double delay_after_homing_s = 0.0;
};

/// T6: denial of service by disabling heating element power.
struct T6Config {
  bool hotend = true;
  bool bed = true;
  double delay_after_homing_s = 20.0;  // drop power mid-print
};

/// T7: destructive thermal runaway - heater gates forced permanently on.
struct T7Config {
  bool hotend = true;
  bool bed = false;
  double delay_after_homing_s = 10.0;
};

/// T8: arbitrary stepper deactivation via the /EN lines.
struct T8Config {
  std::array<bool, 4> axes = {true, true, false, true};  // X, Y, Z, E
  double period_s = 15.0;        // between deactivations
  double off_duration_s = 0.4;   // how long drivers stay dead
  double delay_after_homing_s = 5.0;
};

/// T9: part-fan tampering - rescale the firmware-commanded duty.
struct T9Config {
  double duty_scale = 0.2;   // < 1 under-cooling, > 1 over-cooling
  double duty_offset = 0.0;
  sim::Tick window = sim::ms(100);  // re-modulation measurement window
  double delay_after_homing_s = 0.0;
};

/// T10 (extension): thermistor spoofing through the analog XADC->DAC
/// path.  The firmware reads `understate_c` degrees LESS than the true
/// temperature, so its own control loop silently overheats the zone by
/// that amount - no thermal fault ever fires, because every reading the
/// protection logic sees looks nominal.  A stealthier relative of T7.
struct T10Config {
  bool hotend = true;
  bool bed = false;
  double understate_c = 20.0;
  double delay_after_homing_s = 0.0;
};

/// Which Trojans a run arms, and how.  Empty = T0 golden behaviour.
struct TrojanSuiteConfig {
  std::optional<T1Config> t1;
  std::optional<T2Config> t2;
  std::optional<T3Config> t3;
  std::optional<T4Config> t4;
  std::optional<T5Config> t5;
  std::optional<T6Config> t6;
  std::optional<T7Config> t7;
  std::optional<T8Config> t8;
  std::optional<T9Config> t9;
  std::optional<T10Config> t10;

  [[nodiscard]] bool any() const {
    return t1 || t2 || t3 || t4 || t5 || t6 || t7 || t8 || t9 || t10;
  }
};

// --- Trojan base -------------------------------------------------------------

/// One deployable Trojan.  Concrete Trojans install their logic in
/// activate() and must undo every path manipulation in deactivate().
class Trojan {
 public:
  virtual ~Trojan() = default;
  Trojan(const Trojan&) = delete;
  Trojan& operator=(const Trojan&) = delete;

  [[nodiscard]] virtual TrojanId id() const = 0;

  /// Dynamically enables/disables the Trojan's effect (the multiplexer
  /// select of the paper's Trojan Control Module).
  void set_enabled(bool enabled);
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Times the Trojan took a malicious action (bursts, masks, forces).
  [[nodiscard]] std::uint64_t activations() const { return activations_; }

 protected:
  explicit Trojan(Fpga& fpga) : fpga_(fpga) {}
  virtual void activate() = 0;
  virtual void deactivate() = 0;
  void note_activation() { ++activations_; }

  Fpga& fpga_;

 private:
  bool enabled_ = false;
  std::uint64_t activations_ = 0;
};

// --- Controller ---------------------------------------------------------------

/// Owns the armed Trojans and wires their homing-based triggers.
class TrojanController {
 public:
  explicit TrojanController(Fpga& fpga);

  TrojanController(const TrojanController&) = delete;
  TrojanController& operator=(const TrojanController&) = delete;

  /// Instantiates every configured Trojan.  Each enables itself
  /// `delay_after_homing_s` after the homing detector fires.  Call before
  /// the print starts; calling twice throws.
  void arm(const TrojanSuiteConfig& config);

  [[nodiscard]] const std::vector<std::unique_ptr<Trojan>>& trojans() const {
    return trojans_;
  }
  /// Finds an armed Trojan by id (nullptr when not armed).
  [[nodiscard]] Trojan* find(TrojanId id);

 private:
  void add(std::unique_ptr<Trojan> trojan, double delay_after_homing_s);

  Fpga& fpga_;
  std::vector<std::unique_ptr<Trojan>> trojans_;
  bool armed_ = false;
};

}  // namespace offramps::core
