#include "fw/firmware.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "sim/error.hpp"

namespace offramps::fw {
namespace {

constexpr sim::Tick kTempPollPeriod = sim::ms(250);

}  // namespace

Firmware::Firmware(sim::Scheduler& sched, Config config, sim::PinBank& io)
    : sched_(sched),
      config_(config),
      io_(io),
      planner_(config_),
      stepper_(sched, io, config_),
      thermal_(sched, config_, io.analog(sim::APin::kThermHotend),
               io.analog(sim::APin::kThermBed),
               io.wire(sim::Pin::kHotendHeat), io.wire(sim::Pin::kBedHeat),
               [this](Heater h, ThermalFault f) {
                 kill(std::string("thermal: ") + thermal_fault_name(f) +
                      (h == Heater::kHotend ? " (hotend)" : " (bed)"));
               }),
      fan_pwm_(sched, io.wire(sim::Pin::kFan), config_.fan_pwm_period),
      jitter_(config_.jitter_seed) {}

void Firmware::enqueue_program(const gcode::Program& program) {
  for (const auto& cmd : program) queue_.push_back(cmd);
  if (state_ == FwState::kRunning) schedule_advance();
}

void Firmware::start() {
  if (state_ != FwState::kIdle) {
    throw Error("Firmware::start: already started");
  }
  state_ = FwState::kRunning;
  thermal_.start();
  schedule_advance();
}

void Firmware::kill(const std::string& reason) {
  if (state_ == FwState::kKilled) return;
  state_ = FwState::kKilled;
  kill_reason_ = reason;
  ++temp_poll_generation_;  // cancel any M109/M190 poll
  thermal_.shutdown();
  stepper_.abort();
  stepper_.set_all_enabled(false);
  fan_pwm_.stop();
  queue_.clear();
  command_in_flight_ = false;
  if (on_killed_) on_killed_(reason);
}

// --- Dispatch ---------------------------------------------------------------

void Firmware::schedule_advance() {
  if (advance_pending_) return;
  advance_pending_ = true;
  sched_.schedule_in(0, [this] {
    advance_pending_ = false;
    advance();
  });
}

void Firmware::advance() {
  if (state_ != FwState::kRunning) return;
  if (command_in_flight_ || stepper_.busy()) return;
  if (queue_.empty()) {
    state_ = FwState::kFinished;
    if (on_finished_) on_finished_();
    return;
  }
  gcode::Command cmd = std::move(queue_.front());
  queue_.pop_front();
  execute(cmd);
}

void Firmware::command_done() {
  command_in_flight_ = false;
  schedule_advance();
}

void Firmware::execute(const gcode::Command& cmd) {
  command_in_flight_ = true;
  if (cmd.letter == 'G') {
    switch (cmd.code) {
      case 0:
      case 1:
        exec_move(cmd);
        return;
      case 2:
      case 3:
        exec_arc(cmd, /*clockwise=*/cmd.code == 2);
        return;
      case 4:
        exec_dwell(cmd);
        return;
      case 21:  // mm units: the only mode we model
        command_done();
        return;
      case 28:
        exec_home(cmd);
        return;
      case 90:
      case 91:
        apply_modal(motion_, cmd);
        command_done();
        return;
      case 92:
        exec_set_position(cmd);
        return;
      default:
        ++unknown_;
        command_done();
        return;
    }
  }
  if (cmd.letter == 'M') {
    switch (cmd.code) {
      case 17:
        stepper_.set_all_enabled(true);
        command_done();
        return;
      case 82:
      case 83:
        apply_modal(motion_, cmd);
        command_done();
        return;
      case 84:
        stepper_.set_all_enabled(false);
        command_done();
        return;
      case 104:
        thermal_.set_target(Heater::kHotend, cmd.value_or('S', 0.0));
        command_done();
        return;
      case 105:  // temperature report: no host reads it
      case 114:  // position report: no host reads it
        command_done();
        return;
      case 106:
        fan_pwm_.set_duty(std::clamp(cmd.value_or('S', 255.0), 0.0, 255.0) /
                          255.0);
        command_done();
        return;
      case 107:
        fan_pwm_.set_duty(0.0);
        command_done();
        return;
      case 109:
        exec_wait_temp(Heater::kHotend, cmd);
        return;
      case 112:
        kill("M112 emergency stop");
        return;
      case 140:
        thermal_.set_target(Heater::kBed, cmd.value_or('S', 0.0));
        command_done();
        return;
      case 190:
        exec_wait_temp(Heater::kBed, cmd);
        return;
      case 220:
      case 221:
        apply_modal(motion_, cmd);
        command_done();
        return;
      default:
        ++unknown_;
        command_done();
        return;
    }
  }
  ++unknown_;
  command_done();
}

// --- Motion -----------------------------------------------------------------

void Firmware::start_segment(const Segment& seg,
                             StepperEngine::Completion cb) {
  // "Time noise": per-segment startup latency from planner/serial
  // asynchrony (paper section V-C).
  const auto jitter = static_cast<sim::Tick>(jitter_.uniform(
      0.0, static_cast<double>(config_.segment_jitter_max)));
  sched_.schedule_in(jitter, [this, seg, cb = std::move(cb)]() mutable {
    if (state_ != FwState::kRunning) return;
    stepper_.start(seg, std::move(cb));
  });
}

void Firmware::exec_move(const gcode::Command& cmd) {
  // Pure translation: modal resolution, software endstops, flow scaling,
  // cold-extrusion stripping and step quantization all live in
  // fw::kinematics, shared with the static analyzer.
  const bool hotend_hot =
      thermal_.current(Heater::kHotend) >= config_.min_extrude_temp_c;
  const ResolvedMove mv = resolve_move(config_, motion_, cmd, hotend_hot);
  if (mv.cold_extrusion_blocked) ++cold_extrusion_blocks_;
  // The modal feedrate commits now; the position commits only when the
  // stepper engine reports the executed steps (partial on abort).
  commit_move(config_, motion_, cmd, mv, /*executed=*/false);

  // One-segment lookahead (classic jerk): exit at a speed scaled by the
  // angle to the next queued move, so collinear chains (arc chords,
  // straight runs split by the host) cruise through junctions.
  const double dx =
      static_cast<double>(mv.delta_steps[0]) / config_.steps_per_mm[0];
  const double dy =
      static_cast<double>(mv.delta_steps[1]) / config_.steps_per_mm[1];
  const double len = std::hypot(dx, dy);
  double entry_mm_s = -1.0;
  double exit_mm_s = -1.0;
  if (config_.junction_lookahead && len > 1e-9) {
    entry_mm_s = pending_entry_mm_s_;
    if (const auto next = peek_next_move_dir(mv.target_mm)) {
      const double cosine = (dx * (*next)[0] + dy * (*next)[1]) / len;
      const double factor = std::clamp((1.0 + cosine) / 2.0, 0.0, 1.0);
      exit_mm_s = config_.junction_speed_mm_s +
                  factor * std::max(mv.feed_mm_s -
                                        config_.junction_speed_mm_s,
                                    0.0);
    }
  }
  pending_entry_mm_s_ = exit_mm_s;

  const Segment seg = planner_.plan(mv.delta_steps, mv.feed_mm_s,
                                    entry_mm_s, exit_mm_s);

  start_segment(seg, [this](bool, std::array<std::int64_t, 4> executed) {
    for (std::size_t i = 0; i < 4; ++i) {
      motion_.position_steps[i] += executed[i];
    }
    ++moves_executed_;
    command_done();
  });
}

void Firmware::exec_arc(const gcode::Command& cmd, bool clockwise) {
  // Chord synthesis is pure (fw::kinematics); the firmware's job is only
  // to splice the chords in front of the queue, so they execute before
  // whatever the host sends next.
  ArcExpansion arc = expand_arc(config_, motion_, cmd, clockwise);
  if (arc.degenerate) {
    ++unknown_;
    command_done();
    return;
  }
  for (auto it = arc.chords.rbegin(); it != arc.chords.rend(); ++it) {
    queue_.push_front(std::move(*it));
  }
  command_done();
}

std::optional<std::array<double, 2>> Firmware::peek_next_move_dir(
    const std::array<double, 4>& from) const {
  if (queue_.empty()) return std::nullopt;
  const gcode::Command& next = queue_.front();
  if (!(next.is('G', 0) || next.is('G', 1))) return std::nullopt;
  if (!next.has('X') && !next.has('Y')) return std::nullopt;
  double nx = from[0];
  double ny = from[1];
  if (const auto v = next.get('X')) {
    nx = motion_.absolute_xyz ? *v : from[0] + *v;
  }
  if (const auto v = next.get('Y')) {
    ny = motion_.absolute_xyz ? *v : from[1] + *v;
  }
  const double dx = nx - from[0];
  const double dy = ny - from[1];
  const double len = std::hypot(dx, dy);
  if (len < 1e-9) return std::nullopt;
  return std::array<double, 2>{dx / len, dy / len};
}

void Firmware::exec_dwell(const gcode::Command& cmd) {
  pending_entry_mm_s_ = -1.0;  // motion stops across a dwell
  double wait_s = 0.0;
  if (const auto p = cmd.get('P')) wait_s = *p / 1000.0;
  if (const auto s = cmd.get('S')) wait_s = *s;
  sched_.schedule_in(sim::from_seconds(std::max(wait_s, 0.0)),
                     [this] { command_done(); });
}

void Firmware::exec_set_position(const gcode::Command& cmd) {
  apply_set_position(config_, motion_, cmd);
  command_done();
}

void Firmware::exec_wait_temp(Heater h, const gcode::Command& cmd) {
  pending_entry_mm_s_ = -1.0;
  const double target = cmd.has('R') ? cmd.value_or('R', 0.0)
                                     : cmd.value_or('S', 0.0);
  thermal_.set_target(h, target);
  if (target <= 0.0) {
    command_done();
    return;
  }
  const auto gen = ++temp_poll_generation_;
  poll_temp(h, gen);
}

void Firmware::poll_temp(Heater h, std::uint64_t gen) {
  if (gen != temp_poll_generation_ || state_ != FwState::kRunning) return;
  if (thermal_.at_target(h)) {
    command_done();
    return;
  }
  sched_.schedule_in(kTempPollPeriod, [this, h, gen] { poll_temp(h, gen); });
}

// --- Homing -----------------------------------------------------------------

void Firmware::exec_home(const gcode::Command& cmd) {
  pending_entry_mm_s_ = -1.0;
  const bool all = !cmd.has('X') && !cmd.has('Y') && !cmd.has('Z');
  homing_plan_.clear();
  for (std::size_t i = 0; i < 3; ++i) {
    const auto axis = static_cast<sim::Axis>(i);
    const char letter = "XYZ"[i];
    if (!all && !cmd.has(letter)) continue;
    const double len = config_.axis_length_mm[i];
    // Fast approach: long enough to reach the switch from anywhere.
    homing_plan_.push_back({axis, -(len + 20.0), config_.homing_feed_mm_s,
                            /*abort_on_endstop=*/true,
                            /*require_trigger=*/true,
                            /*zero_after=*/true, /*mark_homed=*/false});
    // Back off the switch.
    homing_plan_.push_back({axis, config_.homing_bump_mm,
                            config_.homing_feed_mm_s, false, false, false,
                            false});
    // Slow re-bump for precision.
    homing_plan_.push_back({axis, -(config_.homing_bump_mm + 5.0),
                            config_.homing_slow_mm_s, true, true,
                            /*zero_after=*/true, /*mark_homed=*/true});
  }
  if (homing_plan_.empty()) {
    command_done();
    return;
  }
  run_homing_phase(0);
}

void Firmware::run_homing_phase(std::size_t index) {
  if (state_ != FwState::kRunning) return;
  if (index >= homing_plan_.size()) {
    command_done();
    return;
  }
  const HomingPhase phase = homing_plan_[index];
  const auto axis_idx = static_cast<std::size_t>(phase.axis);

  std::array<std::int64_t, 4> delta{};
  delta[axis_idx] = static_cast<std::int64_t>(std::llround(
      phase.distance_mm * config_.steps_per_mm[axis_idx]));
  Segment seg = planner_.plan(delta, phase.feed_mm_s);
  seg.abort_on_endstop = phase.abort_on_endstop;
  seg.endstop_axis = phase.axis;

  start_segment(seg, [this, phase, axis_idx, index](
                         bool aborted,
                         std::array<std::int64_t, 4> executed) {
    for (std::size_t i = 0; i < 4; ++i) {
      motion_.position_steps[i] += executed[i];
    }
    if (phase.require_trigger && !aborted) {
      kill(std::string("Homing failed: ") + sim::axis_name(phase.axis) +
           " endstop never triggered");
      return;
    }
    if (phase.zero_after) {
      // The carriage is physically at the switch: this is the new datum.
      motion_.position_steps[axis_idx] = 0;
      motion_.origin_steps[axis_idx] = 0;
    }
    if (phase.mark_homed) motion_.homed[axis_idx] = true;
    run_homing_phase(index + 1);
  });
}

}  // namespace offramps::fw
