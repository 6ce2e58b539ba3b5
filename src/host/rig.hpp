// Experiment rig: the full bench-top stack of the paper's test
// environment (section III-D), assembled in simulation:
//
//   host g-code --> Firmware (Arduino/Marlin) --> OFFRAMPS board --> Printer
//                        ^                             |  FPGA fabric
//                        +--- endstops / thermistors --+  (monitors+Trojans)
//
// `Rig::run` executes one print end to end and gathers everything the
// experiments need: the UART capture, part-quality metrics, firmware
// outcome, thermal peaks, and step accounting on both sides of the board.
// It is the only way to run a print: a live observer (the real-time
// monitor, core::FabricGuard, the fleet's detector feed) subscribes to
// `board().fpga().uart()` between construction and `run`, and may stop
// the print through `firmware().kill`.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/board.hpp"
#include "fw/firmware.hpp"
#include "gcode/command.hpp"
#include "plant/printer.hpp"
#include "plant/side_channel.hpp"
#include "sim/fault.hpp"
#include "sim/scheduler.hpp"

namespace offramps::host {

/// A scheduled supply-voltage excursion (the undervolting/brown-out
/// attack class the paper's Limitations section leaves unexplored).
struct BrownoutScenario {
  enum class Rail { kMotor, kLogic };
  Rail rail = Rail::kMotor;
  double start_s = 30.0;
  double duration_s = 2.0;
  /// Sag target as a fraction of nominal (e.g. 0.6 = 24 V -> 14.4 V).
  double sag_to_fraction = 0.6;
};

/// Everything configurable about one experiment run.
struct RigOptions {
  fw::Config firmware{};
  plant::PrinterParams printer{};
  core::BoardOptions board{};
  core::RouteMode route = core::RouteMode::kFpgaMitm;
  core::TrojanSuiteConfig trojans{};
  std::optional<BrownoutScenario> brownout{};
  /// Side-channel probes to attach, by kind, each with its noise seed:
  /// a current clamp on the supply (power), a microphone near the gantry
  /// (acoustic), a frame-mounted accelerometer (vibration).
  plant::ProbeSeeds probes{};
  /// How long to keep simulating after a firmware kill, to observe
  /// runaway physics (Trojan T7 keeps heating after the firmware dies).
  double post_kill_observation_s = 60.0;
  /// Faults to arm before power-on (`sim::FaultInjector`).  Digital and
  /// analog targets are net names ("X_STEP", "X_MIN", "THERM_HOTEND"),
  /// optionally prefixed "arduino." or "ramps." to pick the header side
  /// (default: ramps, the motor/sensor side).  Stream faults corrupt the
  /// UART transaction frames; timing faults jitter the scheduler.
  std::vector<sim::FaultSpec> faults{};
};

/// Outcome of one print.
struct RunResult {
  core::Capture capture;
  bool finished = false;
  bool killed = false;
  std::string kill_reason;

  plant::PartReport part;
  /// Steps the firmware commanded (Arduino side), signed, per axis.
  std::array<std::int64_t, 4> commanded_steps{};
  /// Steps the motors actually executed (RAMPS side), signed, per axis.
  std::array<std::int64_t, 4> motor_steps{};
  /// Steps lost at disabled drivers (Trojan T8's effect).
  std::array<std::uint64_t, 4> motor_dropped_steps{};

  double hotend_peak_c = 0.0;
  double bed_peak_c = 0.0;
  double mean_fan_rpm = 0.0;
  double sim_seconds = 0.0;
  std::uint64_t events_executed = 0;
  /// Steps skipped from motor-rail undervoltage, per axis.
  std::array<std::uint64_t, 4> undervolt_skips{};
  /// Side-channel traces (each empty unless its probe was attached).
  plant::SideTrace power_trace;
  plant::SideTrace acoustic_trace;
  plant::SideTrace vibration_trace;

  // Fault-injection observability (all zero on a clean run).
  std::uint64_t faults_armed = 0;
  sim::FaultInjector::Stats fault_stats{};
  /// Corrupted UART frames the reporter's receivers discarded via CRC.
  std::uint64_t uart_crc_rejected = 0;
  std::uint64_t uart_frames_emitted = 0;
  /// Events rescheduled by an active timing-jitter fault.
  std::uint64_t scheduler_warped_events = 0;
  /// Homing endstop edges rejected by firmware debounce.
  std::uint64_t endstop_bounces_rejected = 0;

  /// Material actually deposited / material the g-code commanded.
  [[nodiscard]] double flow_ratio() const;
};

/// Assembled firmware + OFFRAMPS + printer stack.
class Rig {
 public:
  explicit Rig(RigOptions options = {});

  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  [[nodiscard]] sim::Scheduler& scheduler() { return sched_; }
  [[nodiscard]] core::Board& board() { return board_; }
  [[nodiscard]] fw::Firmware& firmware() { return firmware_; }
  [[nodiscard]] plant::Printer& printer() { return printer_; }
  /// Attached side-channel probes, in the order power, acoustic,
  /// vibration (each present only when its RigOptions slot is set).
  /// Live access (the traces grow during the run) lets a streaming
  /// consumer - the fleet service's detector pump - follow the side
  /// channels mid-print instead of waiting for the RunResult traces.
  [[nodiscard]] const std::vector<std::unique_ptr<plant::SideProbe>>&
  probes() const {
    return probes_;
  }

  /// Runs one complete print.  Call once per Rig (the physical analogue:
  /// one part per power cycle).
  RunResult run(const gcode::Program& program);

 private:
  RunResult collect(bool finished, bool killed, std::string kill_reason);
  void bind_faults();

  RigOptions options_;
  sim::Scheduler sched_;
  core::Board board_;
  fw::Firmware firmware_;
  plant::Printer printer_;
  std::vector<std::unique_ptr<plant::SideProbe>> probes_;
  // Declared after the stack it injects into: destroyed first, which
  // unhooks the scheduler time warp before the scheduler goes away.
  std::unique_ptr<sim::FaultInjector> fault_injector_;
  bool used_ = false;
};

}  // namespace offramps::host
