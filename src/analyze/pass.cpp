#include "analyze/pass.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <utility>

#include "sim/error.hpp"

namespace offramps::analyze {

namespace {

constexpr double kTinyPath = 1e-9;

/// Target temperature of a thermal command, mirroring the firmware's
/// S/R-word handling (M109/M190 accept R as "wait even when cooling").
double thermal_target(const gcode::Command& cmd) {
  if (cmd.code == 109 || cmd.code == 190) {
    return cmd.has('R') ? cmd.value_or('R', 0.0) : cmd.value_or('S', 0.0);
  }
  return cmd.value_or('S', 0.0);
}

}  // namespace

double pass_thermal_target(const gcode::Command& cmd) {
  return thermal_target(cmd);
}

// --- PassContext -------------------------------------------------------------

void PassContext::emit(Finding finding) {
  if (current_pass_ != nullptr) finding.pass = *current_pass_;
  if (severity_override_ != nullptr) finding.severity = *severity_override_;
  result_.findings.push_back(std::move(finding));
}

void PassContext::emit(FindingCode code, Severity severity, std::size_t index,
                       double value, double bound, std::string message) {
  emit(Finding{code, severity, index, value, bound, std::move(message), {}});
}

// --- PassManager -------------------------------------------------------------

PassManager::PassManager(const fw::Config& config,
                         const AnalyzeOptions& options)
    : config_(config), options_(options) {
  std::vector<std::unique_ptr<Pass>> all = make_passes();
  std::vector<std::string> ids;
  ids.reserve(all.size());
  for (const auto& pass : all) ids.push_back(pass->info().id);
  const auto known = [&ids](const std::string& id) {
    return std::find(ids.begin(), ids.end(), id) != ids.end();
  };

  for (const auto& [id, severity] : options.pass_severity) {
    (void)severity;
    if (!known(id)) {
      throw Error("analyze: unknown pass '" + id + "' in severity override");
    }
  }
  for (const std::string& id : options.passes) {
    if (!known(id)) {
      throw Error("analyze: unknown pass '" + id + "'");
    }
  }

  // Keep the passes in *list* order regardless of the order the user
  // listed them: emission order is part of the deterministic-output
  // contract (fleet reports are hashed at any worker count).
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (!options.passes.empty() &&
        std::find(options.passes.begin(), options.passes.end(), ids[i]) ==
            options.passes.end()) {
      continue;
    }
    ActivePass active;
    active.pass = std::move(all[i]);
    active.id = std::move(ids[i]);
    for (const auto& [id, severity] : options.pass_severity) {
      if (id == active.id) {
        active.has_severity_override = true;
        active.severity_override = severity;
      }
    }
    passes_.push_back(std::move(active));
  }
}

PassManager::~PassManager() = default;

template <typename Hook>
void PassManager::for_each_pass(PassContext& ctx, Hook&& hook) {
  for (ActivePass& active : passes_) {
    ctx.current_pass_ = &active.id;
    ctx.severity_override_ =
        active.has_severity_override ? &active.severity_override : nullptr;
    hook(*active.pass);
  }
  ctx.current_pass_ = nullptr;
  ctx.severity_override_ = nullptr;
}

void PassManager::run(const gcode::Program& program, AnalysisResult& out) {
  state_ = ProgramState{};
  PassContext ctx(config_, options_, state_, out);
  ctx.program_ = &program;

  for_each_pass(ctx, [&](Pass& p) { p.begin(ctx); });
  for (std::size_t i = 0; i < program.size(); ++i) {
    const gcode::Command& cmd = program[i];
    if (state_.halted) {
      for_each_pass(ctx, [&](Pass& p) { p.on_dead(ctx, cmd, i); });
      continue;
    }
    dispatch_command(cmd, i, ctx);
  }
  for_each_pass(ctx, [&](Pass& p) { p.on_end(ctx); });
}

std::size_t PassManager::compare(const AnalysisResult& baseline,
                                 AnalysisResult& suspect) {
  state_ = ProgramState{};
  PassContext ctx(config_, options_, state_, suspect);
  const std::size_t before = suspect.findings.size();
  for_each_pass(ctx, [&](Pass& p) { p.compare(ctx, baseline); });
  return suspect.findings.size() - before;
}

void PassManager::dispatch_command(const gcode::Command& cmd,
                                   std::size_t index, PassContext& ctx) {
  CommandClass cls = CommandClass::kUnknown;
  fw::ArcExpansion arc;

  if (cmd.letter == 'G') {
    switch (cmd.code) {
      case 0:
      case 1: cls = CommandClass::kMove; break;
      case 2:
      case 3:
        arc = fw::expand_arc(config_, state_.motion, cmd,
                             /*clockwise=*/cmd.code == 2);
        cls = arc.degenerate ? CommandClass::kUnknown : CommandClass::kArc;
        break;
      case 4:
      case 21: cls = CommandClass::kIgnored; break;
      case 28: cls = CommandClass::kHome; break;
      case 90:
      case 91: cls = CommandClass::kModal; break;
      case 92: cls = CommandClass::kSetPosition; break;
      default: cls = CommandClass::kUnknown; break;
    }
  } else if (cmd.letter == 'M') {
    switch (cmd.code) {
      case 17:
      case 84:
      case 105:
      case 106:
      case 107:
      case 114: cls = CommandClass::kIgnored; break;
      case 82:
      case 83:
      case 220:
      case 221: cls = CommandClass::kModal; break;
      case 104:
      case 109:
      case 140:
      case 190: cls = CommandClass::kThermal; break;
      case 112: cls = CommandClass::kHalt; break;
      default: cls = CommandClass::kUnknown; break;
    }
  }

  for_each_pass(ctx, [&](Pass& p) { p.on_command(ctx, cmd, index, cls); });

  switch (cls) {
    case CommandClass::kMove: {
      const bool hot = state_.hotend_set_c >= config_.min_extrude_temp_c;
      const fw::ResolvedMove mv =
          fw::resolve_move(config_, state_.motion, cmd, hot);
      for_each_pass(ctx, [&](Pass& p) { p.on_move(ctx, cmd, mv, index); });
      apply_move(cmd, mv);
      break;
    }
    case CommandClass::kArc: {
      for (const gcode::Command& chord : arc.chords) {
        const bool hot = state_.hotend_set_c >= config_.min_extrude_temp_c;
        const fw::ResolvedMove mv =
            fw::resolve_move(config_, state_.motion, chord, hot);
        for_each_pass(ctx,
                      [&](Pass& p) { p.on_move(ctx, chord, mv, index); });
        apply_move(chord, mv);
      }
      break;
    }
    case CommandClass::kHome:
      apply_home(cmd);
      if (!state_.armed && state_.motion.homed[0] && state_.motion.homed[1] &&
          state_.motion.homed[2]) {
        state_.armed = true;
        state_.armed_at = index;
      }
      break;
    case CommandClass::kSetPosition:
      fw::apply_set_position(config_, state_.motion, cmd);
      break;
    case CommandClass::kModal:
      fw::apply_modal(state_.motion, cmd);
      apply_override_bookkeeping(cmd, index);
      break;
    case CommandClass::kThermal:
      apply_thermal(cmd, index);
      break;
    case CommandClass::kHalt:
      state_.halted = true;
      state_.halted_at = index;
      break;
    case CommandClass::kIgnored:
    case CommandClass::kUnknown:
      break;
  }
}

void PassManager::apply_thermal(const gcode::Command& cmd,
                                std::size_t index) {
  const double target = thermal_target(cmd);
  if (cmd.code == 140 || cmd.code == 190) {
    state_.bed_set_c = target;
    return;
  }
  const bool waited = cmd.code == 109;
  const bool changed = std::abs(target - state_.hotend_set_c) > 1e-9;
  if (changed) {
    state_.hotend_used = false;
    state_.hotend_waited = waited;
    if (state_.printing_started && !waited) {
      // Mid-print unwaited setpoint change: taint until a wait covers it.
      state_.temp_override_cmd = index;
    }
  } else {
    state_.hotend_waited = state_.hotend_waited || waited;
  }
  if (waited) state_.temp_override_cmd = ProgramState::kNoCommand;
  state_.hotend_set_c = target;
}

void PassManager::apply_override_bookkeeping(const gcode::Command& cmd,
                                             std::size_t index) {
  if (cmd.letter != 'M') return;
  if (cmd.code == 220) {
    state_.feed_override_cmd =
        (state_.printing_started &&
         std::abs(state_.motion.feedrate_pct - 100.0) > 1e-9)
            ? index
            : ProgramState::kNoCommand;
  } else if (cmd.code == 221) {
    state_.flow_override_cmd =
        (state_.printing_started &&
         std::abs(state_.motion.flow_pct - 100.0) > 1e-9)
            ? index
            : ProgramState::kNoCommand;
  }
}

void PassManager::apply_home(const gcode::Command& cmd) {
  const bool all = !cmd.has('X') && !cmd.has('Y') && !cmd.has('Z');
  const bool was_armed = state_.armed;
  for (std::size_t i = 0; i < 3; ++i) {
    if (!all && !cmd.has("XYZ"[i])) continue;
    if (was_armed) {
      // A re-home after the counters armed: the tracker accumulates the
      // net travel back to the datum (plus trigger-edge noise the
      // static model cannot see).
      state_.counts[i] -= state_.motion.position_steps[i];
      state_.pulses[i] += static_cast<std::uint64_t>(
          std::llabs(state_.motion.position_steps[i]));
    }
    state_.motion.homed[i] = true;
    state_.motion.position_steps[i] = 0;
    state_.motion.origin_steps[i] = 0;
  }
}

void PassManager::apply_move(const gcode::Command& cmd,
                             const fw::ResolvedMove& move) {
  if (move.e_advance_mm > 0.0) state_.hotend_used = true;

  const double de = move.e_advance_mm;
  const bool stationary = move.path_mm <= kTinyPath;
  if (de < 0.0) {
    state_.retract_debt_mm += -de;
  } else if (de > 0.0) {
    if (!stationary) {
      state_.printing_started = true;
    } else {
      state_.retract_debt_mm = std::max(0.0, state_.retract_debt_mm - de);
    }
  }

  if (state_.armed) {
    for (std::size_t i = 0; i < 4; ++i) {
      state_.counts[i] += move.delta_steps[i];
      state_.pulses[i] +=
          static_cast<std::uint64_t>(std::llabs(move.delta_steps[i]));
    }
  }
  fw::commit_move(config_, state_.motion, cmd, move, /*executed=*/true);
}

}  // namespace offramps::analyze
