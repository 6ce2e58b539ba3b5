// Pass framework of the static g-code analyzer.
//
// `analyze_program` used to be one hard-coded walk; it is now a *pass
// manager*: the manager interprets the program exactly once - modal
// resolution, arc expansion, software-endstop clamping, thermal
// setpoints, counter arming, retraction debt - maintaining one shared
// flow-sensitive `ProgramState`, and a fixed list of `Pass` objects
// observe the walk and emit `Finding`s.  Passes never mutate the
// interpreter state, so any subset of them can be enabled without
// changing what the others see; per-pass severity overrides let a
// deployment demote a whole pass to notes without forking the analyzer.
//
// The pass list is fixed: `make_passes` builds the eight builtin passes
// (passes.cpp).  List order is emission order within a command, which
// keeps reports deterministic (the fleet reference phase runs analyses
// on parallel workers and hashes the output), so a new check is one
// `Pass` subclass plus one `make_passes` row.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analyze/analyzer.hpp"
#include "fw/kinematics.hpp"
#include "gcode/command.hpp"

namespace offramps::analyze {

/// Identity card of one pass (also the --list-passes output).
struct PassInfo {
  std::string id;           // stable kebab-case id ("thermal", ...)
  std::string description;  // one line, with the finding codes it owns
};

/// What the manager decided one command is, before applying it.
enum class CommandClass : std::uint8_t {
  kMove,         // G0/G1
  kArc,          // G2/G3 with a valid I/J geometry
  kHome,         // G28
  kSetPosition,  // G92
  kModal,        // G90/G91/M82/M83/M220/M221
  kThermal,      // M104/M109/M140/M190
  kHalt,         // M112
  kIgnored,      // G4/G21/M17/M84/M105/M106/M107/M114
  kUnknown,      // anything the firmware would ignore (incl. bad arcs)
};

/// The shared flow-sensitive interpreter state, updated only by the
/// manager.  Hooks always observe the state *before* the current command
/// is applied.
struct ProgramState {
  static constexpr std::size_t kNoCommand = static_cast<std::size_t>(-1);

  fw::MotionState motion{};

  // Thermal model.
  double hotend_set_c = 0.0;
  double bed_set_c = 0.0;
  bool hotend_waited = false;  // an M109/M190 wait covered the setpoint
  bool hotend_used = false;    // the live setpoint backed real extrusion

  // Step-counter arming (mirrors the FPGA AxisTracker activation).
  bool armed = false;
  std::size_t armed_at = 0;
  std::array<std::int64_t, 4> counts{};
  std::array<std::uint64_t, 4> pulses{};

  // Extrusion flow.
  double retract_debt_mm = 0.0;
  bool printing_started = false;  // first moving extrusion seen

  // Abort reachability.
  bool halted = false;
  std::size_t halted_at = 0;

  // Taint provenance: command index of the live mid-print override, or
  // kNoCommand when the factor is back at its trusted value.
  std::size_t feed_override_cmd = kNoCommand;   // M220 != 100%
  std::size_t flow_override_cmd = kNoCommand;   // M221 != 100%
  std::size_t temp_override_cmd = kNoCommand;   // unwaited M104 change
};

/// What a pass sees: read-only interpreter state plus the finding sink.
/// `emit` tags the finding with the running pass's id and applies the
/// per-pass severity override before appending it to the result.
class PassContext {
 public:
  PassContext(const fw::Config& config, const AnalyzeOptions& options,
              const ProgramState& state, AnalysisResult& result)
      : config_(config), options_(options), state_(state), result_(result) {}

  [[nodiscard]] const fw::Config& config() const { return config_; }
  [[nodiscard]] const AnalyzeOptions& options() const { return options_; }
  [[nodiscard]] const ProgramState& state() const { return state_; }
  [[nodiscard]] AnalysisResult& result() { return result_; }
  /// The program under analysis (nullptr during the compare phase).
  [[nodiscard]] const gcode::Program* program() const { return program_; }

  void emit(Finding finding);
  void emit(FindingCode code, Severity severity, std::size_t index,
            double value, double bound, std::string message);

 private:
  friend class PassManager;
  const fw::Config& config_;
  const AnalyzeOptions& options_;
  const ProgramState& state_;
  AnalysisResult& result_;
  const gcode::Program* program_ = nullptr;
  const std::string* current_pass_ = nullptr;
  const Severity* severity_override_ = nullptr;
};

/// One analysis pass.  Instances live for one analysis run, so member
/// variables are the place for pass-local flow state.
class Pass {
 public:
  virtual ~Pass() = default;
  Pass() = default;
  Pass(const Pass&) = delete;
  Pass& operator=(const Pass&) = delete;

  [[nodiscard]] virtual PassInfo info() const = 0;

  /// Called once before the walk.
  virtual void begin(PassContext& ctx) { (void)ctx; }
  /// Called for every live command, before it mutates the state.
  virtual void on_command(PassContext& ctx, const gcode::Command& cmd,
                          std::size_t index, CommandClass cls) {
    (void)ctx; (void)cmd; (void)index; (void)cls;
  }
  /// Called for every resolved motion segment (arc chords repeat with
  /// their G2/G3's command index), before the move is committed.
  virtual void on_move(PassContext& ctx, const gcode::Command& cmd,
                       const fw::ResolvedMove& move, std::size_t index) {
    (void)ctx; (void)cmd; (void)move; (void)index;
  }
  /// Called for every command after an M112 abort (never executed).
  virtual void on_dead(PassContext& ctx, const gcode::Command& cmd,
                       std::size_t index) {
    (void)ctx; (void)cmd; (void)index;
  }
  /// Called once after the walk.
  virtual void on_end(PassContext& ctx) { (void)ctx; }
  /// Called by the baseline-comparison phase (only the baseline-compare
  /// pass implements it).
  virtual void compare(PassContext& ctx, const AnalysisResult& baseline) {
    (void)ctx; (void)baseline;
  }
};

/// The builtin passes, one fresh instance each, in emission order (also
/// the --list-passes order): thermal, kinematics-limits, extrusion,
/// structure, reachability, taint, oracle, baseline-compare.
[[nodiscard]] std::vector<std::unique_ptr<Pass>> make_passes();

/// Drives one analysis: keeps the enabled passes of make_passes() and
/// walks the program once, threading the shared ProgramState through
/// every hook.  Throws offramps::Error on an unknown pass id in the
/// options.
class PassManager {
 public:
  PassManager(const fw::Config& config, const AnalyzeOptions& options);
  ~PassManager();
  PassManager(const PassManager&) = delete;
  PassManager& operator=(const PassManager&) = delete;

  /// Full single-program analysis into `out`.
  void run(const gcode::Program& program, AnalysisResult& out);

  /// Baseline-comparison phase; appends to suspect.findings and returns
  /// the number appended.
  std::size_t compare(const AnalysisResult& baseline,
                      AnalysisResult& suspect);

 private:
  struct ActivePass {
    std::unique_ptr<Pass> pass;
    std::string id;
    bool has_severity_override = false;
    Severity severity_override = Severity::kNote;
  };

  void dispatch_command(const gcode::Command& cmd, std::size_t index,
                        PassContext& ctx);
  void apply_thermal(const gcode::Command& cmd, std::size_t index);
  void apply_home(const gcode::Command& cmd);
  void apply_move(const gcode::Command& cmd, const fw::ResolvedMove& move);
  void apply_override_bookkeeping(const gcode::Command& cmd,
                                 std::size_t index);

  template <typename Hook>
  void for_each_pass(PassContext& ctx, Hook&& hook);

  const fw::Config& config_;
  const AnalyzeOptions& options_;
  ProgramState state_{};
  std::vector<ActivePass> passes_;
};

/// Target temperature of an M104/M109/M140/M190 command (the S/R-word
/// grammar the firmware uses); shared by the manager and the thermal
/// pass so both model the same setpoint.
double pass_thermal_target(const gcode::Command& cmd);

}  // namespace offramps::analyze
