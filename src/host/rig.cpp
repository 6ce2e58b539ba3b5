#include "host/rig.hpp"

#include <string_view>

#include "sim/error.hpp"

namespace offramps::host {

double RunResult::flow_ratio() const {
  const double commanded = static_cast<double>(commanded_steps[3]);
  if (commanded <= 0.0) return 0.0;
  return static_cast<double>(motor_steps[3]) / commanded;
}

Rig::Rig(RigOptions options)
    : options_(std::move(options)),
      board_(sched_, options_.board, options_.route),
      firmware_(sched_, options_.firmware, board_.arduino_side()),
      printer_(sched_, board_.ramps_side(), options_.printer) {
  if (options_.trojans.any()) {
    board_.trojans().arm(options_.trojans);
  }
  // Logic-rail brown-out resets the MCU mid-print (modelled as a kill:
  // the job is lost either way).
  printer_.logic_rail().on_change([this](double) {
    if (printer_.power().mcu_brownout() &&
        firmware_.state() == fw::FwState::kRunning) {
      firmware_.kill("MCU brown-out reset (logic rail sag)");
    }
  });
  for (const plant::SampleKind kind : plant::kProbeKinds) {
    if (const auto& seed = options_.probes[kind]) {
      probes_.push_back(plant::make_probe(sched_, printer_,
                                          board_.ramps_side(), kind, *seed));
    }
  }
  if (!options_.faults.empty()) bind_faults();
  if (options_.brownout.has_value()) {
    const BrownoutScenario& b = *options_.brownout;
    plant::PowerRail& rail = b.rail == BrownoutScenario::Rail::kMotor
                                 ? printer_.motor_rail()
                                 : printer_.logic_rail();
    sched_.schedule_at(sim::from_seconds(b.start_s), [&rail, b] {
      rail.set_volts(rail.nominal_v() * b.sag_to_fraction);
    });
    sched_.schedule_at(sim::from_seconds(b.start_s + b.duration_s),
                       [&rail] { rail.restore(); });
  }
}

namespace {

/// Hard wall on simulated print time (safety backstop).
constexpr double kMaxSimSeconds = 4000.0;

/// Resolves a fault target like "ramps.X_STEP" / "X_MIN" to a header side
/// and bare net name.  The default side is ramps: that is the motor and
/// sensor side, where a stuck STEP is invisible to the monitors (they tap
/// the Arduino side) -- the interesting silent-corruption case.
sim::PinBank& resolve_bank(core::Board& board, std::string& name) {
  constexpr std::string_view kArduino = "arduino.";
  constexpr std::string_view kRamps = "ramps.";
  if (name.rfind(kArduino, 0) == 0) {
    name.erase(0, kArduino.size());
    return board.arduino_side();
  }
  if (name.rfind(kRamps, 0) == 0) name.erase(0, kRamps.size());
  return board.ramps_side();
}

}  // namespace

void Rig::bind_faults() {
  fault_injector_ = std::make_unique<sim::FaultInjector>(sched_);
  std::vector<sim::FaultInjector::StreamFault> stream_faults;
  for (const auto& spec : options_.faults) {
    if (sim::fault_targets_timing(spec.kind)) {
      fault_injector_->inject_timing(spec);
      continue;
    }
    if (sim::fault_targets_stream(spec.kind)) {
      if (auto f = fault_injector_->make_stream_fault(spec)) {
        stream_faults.push_back(std::move(f));
      }
      continue;
    }
    std::string name = spec.target;
    sim::PinBank& bank = resolve_bank(board_, name);
    if (sim::fault_targets_digital(spec.kind)) {
      for (std::size_t i = 0; i < sim::kPinCount; ++i) {
        const auto pin = static_cast<sim::Pin>(i);
        if (name == sim::pin_name(pin)) {
          fault_injector_->inject_digital(spec, bank.wire(pin));
          name.clear();
          break;
        }
      }
    } else {
      for (std::size_t i = 0; i < sim::kAPinCount; ++i) {
        const auto apin = static_cast<sim::APin>(i);
        if (name == sim::apin_name(apin)) {
          fault_injector_->inject_analog(spec, bank.analog(apin));
          name.clear();
          break;
        }
      }
    }
    if (!name.empty()) {
      throw Error("Rig: fault target names no known net: " + spec.describe());
    }
  }
  if (!stream_faults.empty()) {
    board_.fpga().uart().set_frame_fault(
        [faults = std::move(stream_faults)](std::vector<std::uint8_t>& b) {
          for (const auto& f : faults) f(b);
        });
  }
}

RunResult Rig::run(const gcode::Program& program) {
  if (used_) throw Error("Rig::run: a Rig executes a single print");
  used_ = true;

  bool finished = false;
  bool killed = false;
  std::string kill_reason;

  firmware_.on_finished([&] {
    finished = true;
    sched_.request_stop();
  });
  firmware_.on_killed([&](const std::string& reason) {
    killed = true;
    kill_reason = reason;
    // Keep the world running: destructive Trojans (T7) do their damage
    // after the firmware has given up.
    sched_.schedule_in(sim::from_seconds(options_.post_kill_observation_s),
                       [this] { sched_.request_stop(); });
  });

  firmware_.enqueue_program(program);
  firmware_.start();

  const sim::Tick deadline = sim::from_seconds(kMaxSimSeconds);
  while (!sched_.stop_requested() && !sched_.idle() &&
         sched_.now() < deadline) {
    sched_.run_until(std::min<sim::Tick>(sched_.now() + sim::seconds(1),
                                         deadline));
  }

  return collect(finished, killed, kill_reason);
}

RunResult Rig::collect(bool finished, bool killed, std::string kill_reason) {
  RunResult r;
  board_.fpga().uart().finalize(finished);
  r.capture = board_.fpga().uart().take_capture();
  r.finished = finished;
  r.killed = killed;
  r.kill_reason = std::move(kill_reason);

  r.part = printer_.deposition().report();
  r.commanded_steps = firmware_.stepper().lifetime_steps();
  for (std::size_t i = 0; i < 4; ++i) {
    const auto axis = static_cast<sim::Axis>(i);
    r.motor_steps[i] = printer_.motor(axis).position();
    r.motor_dropped_steps[i] = printer_.motor(axis).dropped_steps();
    r.undervolt_skips[i] = printer_.motor(axis).undervolt_skips();
  }
  for (const auto& probe : probes_) {
    switch (probe->kind()) {
      case plant::SampleKind::kPower:
        r.power_trace = probe->take_trace();
        break;
      case plant::SampleKind::kAcoustic:
        r.acoustic_trace = probe->take_trace();
        break;
      case plant::SampleKind::kVibration:
        r.vibration_trace = probe->take_trace();
        break;
    }
  }
  if (fault_injector_ != nullptr) {
    r.faults_armed = fault_injector_->armed();
    r.fault_stats = fault_injector_->stats();
  }
  r.uart_crc_rejected = board_.fpga().uart().crc_rejected();
  r.uart_frames_emitted = board_.fpga().uart().frames_emitted();
  r.scheduler_warped_events = sched_.warped_events();
  r.endstop_bounces_rejected =
      firmware_.stepper().endstop_bounces_rejected();
  r.hotend_peak_c = printer_.hotend().peak_c();
  r.bed_peak_c = printer_.bed().peak_c();
  r.mean_fan_rpm = printer_.fan().mean_rpm();
  r.sim_seconds = sim::to_seconds(sched_.now());
  r.events_executed = sched_.executed();
  return r;
}

}  // namespace offramps::host
