// Marlin-like firmware simulator.
//
// `Firmware` is the "Arduino Mega running Marlin" of the paper's stack: it
// consumes g-code, plans and executes motion as STEP/DIR/EN pulse trains,
// closes the thermal loop over the thermistor ADC inputs, runs the part
// fan, performs endstop homing, and enforces Marlin's safety features
// (thermal runaway protection, cold-extrusion prevention, kill).  Its only
// contact with the rest of the world is a `sim::PinBank` - exactly the
// signal interface the OFFRAMPS board intercepts.
//
// Supported g-code (the Marlin subset exercised by slicer output and by
// the paper's experiments):
//   G0/G1 linear move        G2/G3 arcs (I/J form, helical, E-aware)
//   G4 dwell                 G21 mm units (no-op)
//   G28 home                 G90/G91 abs/rel   G92 set position
//   M82/M83 E abs/rel        M84/M17 motors    M104/M109 hotend temp
//   M105 temp report         M106/M107 fan
//   M112 emergency stop      M114 position report
//   M140/M190 bed temp       M220 feedrate %   M221 flow %
// No host reads the serial console, so M105 and M114 are accepted and
// finish at once without producing a report.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "fw/config.hpp"
#include "fw/kinematics.hpp"
#include "fw/planner.hpp"
#include "fw/pwm.hpp"
#include "fw/stepper.hpp"
#include "fw/thermal.hpp"
#include "gcode/command.hpp"
#include "sim/pins.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"

namespace offramps::fw {

/// Overall machine state.
enum class FwState : std::uint8_t {
  kIdle,      // created / start() not called
  kRunning,   // processing the queue (includes waits and homing)
  kFinished,  // queue drained
  kKilled,    // fatal error; machine halted
};

/// Firmware facade over planner + stepper engine + thermal manager.
class Firmware {
 public:
  /// `io` is the Arduino-side pin bank: the firmware drives the outputs
  /// (STEP/DIR/EN, heater and fan gates) and reads the inputs (endstops,
  /// thermistor channels) of this bank.
  Firmware(sim::Scheduler& sched, Config config, sim::PinBank& io);

  Firmware(const Firmware&) = delete;
  Firmware& operator=(const Firmware&) = delete;

  // --- Input ---------------------------------------------------------------
  /// Enqueues a whole program.
  void enqueue_program(const gcode::Program& program);

  /// Starts processing: thermal loop + command dispatch.
  void start();

  /// Emergency stop: heaters off, motion aborted, drivers released.
  void kill(const std::string& reason);

  // --- Observation ----------------------------------------------------------
  [[nodiscard]] FwState state() const { return state_; }
  [[nodiscard]] bool finished() const { return state_ == FwState::kFinished; }
  [[nodiscard]] bool killed() const { return state_ == FwState::kKilled; }
  [[nodiscard]] const std::string& kill_reason() const { return kill_reason_; }

  /// Commanded physical position, in steps from power-on, per axis.
  [[nodiscard]] const std::array<std::int64_t, 4>& position_steps() const {
    return motion_.position_steps;
  }
  /// Logical position in mm (what M114 would report).
  [[nodiscard]] double logical_mm(sim::Axis a) const {
    return motion_.logical_mm(config_, a);
  }
  [[nodiscard]] bool homed(sim::Axis a) const {
    return motion_.homed[static_cast<std::size_t>(a)];
  }
  [[nodiscard]] bool all_homed() const {
    return motion_.homed[0] && motion_.homed[1] && motion_.homed[2];
  }
  [[nodiscard]] ThermalManager& thermal() { return thermal_; }
  [[nodiscard]] const ThermalManager& thermal() const { return thermal_; }
  [[nodiscard]] StepperEngine& stepper() { return stepper_; }
  [[nodiscard]] double fan_duty() const { return fan_pwm_.duty(); }
  [[nodiscard]] const Config& config() const { return config_; }

  [[nodiscard]] std::uint64_t moves_executed() const {
    return moves_executed_;
  }
  [[nodiscard]] std::uint64_t unknown_commands() const { return unknown_; }
  [[nodiscard]] std::uint64_t cold_extrusion_blocks() const {
    return cold_extrusion_blocks_;
  }
  [[nodiscard]] std::size_t queue_depth() const { return queue_.size(); }

  // --- Callbacks -------------------------------------------------------------
  /// Fired once when the queue drains.
  void on_finished(std::function<void()> cb) { on_finished_ = std::move(cb); }
  /// Fired once on kill, with the reason string.
  void on_killed(std::function<void(const std::string&)> cb) {
    on_killed_ = std::move(cb);
  }

 private:
  // Dispatch.
  void schedule_advance();
  void advance();
  void execute(const gcode::Command& cmd);
  void command_done();  // bookkeeping + advance after a command completes

  // Command implementations.
  void exec_move(const gcode::Command& cmd);
  void exec_arc(const gcode::Command& cmd, bool clockwise);
  void exec_home(const gcode::Command& cmd);
  void exec_dwell(const gcode::Command& cmd);
  void exec_set_position(const gcode::Command& cmd);
  void exec_wait_temp(Heater h, const gcode::Command& cmd);

  // Homing sub-machine.
  struct HomingPhase {
    sim::Axis axis = sim::Axis::kX;
    double distance_mm = 0.0;  // signed
    double feed_mm_s = 0.0;
    bool abort_on_endstop = false;
    bool require_trigger = false;  // kill if the endstop never fires
    bool zero_after = false;       // reset the axis datum on completion
    bool mark_homed = false;
  };
  void run_homing_phase(std::size_t index);

  // Helpers.
  void start_segment(const Segment& seg, StepperEngine::Completion cb);
  void poll_temp(Heater h, std::uint64_t gen);

  sim::Scheduler& sched_;
  Config config_;
  sim::PinBank& io_;
  Planner planner_;
  StepperEngine stepper_;
  ThermalManager thermal_;
  SoftPwm fan_pwm_;
  sim::Rng jitter_;

  std::deque<gcode::Command> queue_;
  FwState state_ = FwState::kIdle;
  std::string kill_reason_;
  bool advance_pending_ = false;
  bool command_in_flight_ = false;

  // Interpreter modal/position state (shared pure translation model).
  MotionState motion_;

  // One-segment lookahead: the junction speed the previous move planned
  // to exit at (mm/s along the path); negative = no continuity.
  double pending_entry_mm_s_ = -1.0;
  /// XY unit direction of the queue-front move measured from `from`,
  /// or nullopt when the next command is not an XY move.
  [[nodiscard]] std::optional<std::array<double, 2>> peek_next_move_dir(
      const std::array<double, 4>& from) const;

  std::vector<HomingPhase> homing_plan_;

  std::uint64_t moves_executed_ = 0;
  std::uint64_t unknown_ = 0;
  std::uint64_t cold_extrusion_blocks_ = 0;
  std::uint64_t temp_poll_generation_ = 0;

  std::function<void()> on_finished_;
  std::function<void(const std::string&)> on_killed_;
};

}  // namespace offramps::fw
