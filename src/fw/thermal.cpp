#include "fw/thermal.hpp"

#include <algorithm>
#include <cmath>

namespace offramps::fw {

const char* thermal_fault_name(ThermalFault f) {
  switch (f) {
    case ThermalFault::kNone: return "none";
    case ThermalFault::kMaxTemp: return "MAXTEMP triggered";
    case ThermalFault::kMinTemp: return "MINTEMP triggered";
    case ThermalFault::kHeatingFailed: return "Heating failed";
    case ThermalFault::kThermalRunaway: return "Thermal Runaway";
  }
  return "unknown";
}

ThermalManager::ThermalManager(sim::Scheduler& sched, const Config& config,
                               sim::AnalogChannel& hotend_adc,
                               sim::AnalogChannel& bed_adc,
                               sim::Wire& hotend_gate, sim::Wire& bed_gate,
                               KillCallback on_kill)
    : sched_(sched),
      config_(config),
      hotend_(sched, &config.hotend, &hotend_adc, hotend_gate,
              config.thermal_period),
      bed_(sched, &config.bed, &bed_adc, bed_gate, config.thermal_period),
      on_kill_(std::move(on_kill)) {}

void ThermalManager::start() {
  if (running_) return;
  running_ = true;
  const auto gen = ++generation_;
  sched_.schedule_in(config_.thermal_period,
                     [this, gen] { control_tick(gen); });
}

void ThermalManager::shutdown() {
  running_ = false;
  ++generation_;
  hotend_.target_c = 0.0;
  bed_.target_c = 0.0;
  hotend_.pwm.stop();
  bed_.pwm.stop();
}

void ThermalManager::set_target(Heater h, double celsius) {
  Zone& z = zone(h);
  z.target_c = celsius;
  if (celsius <= 0.0) {
    z.target_c = 0.0;
    z.watch = WatchState::kInactive;
    z.runaway_armed = false;
    z.integral = 0.0;
    z.pwm.stop();
    z.duty = 0.0;
    return;
  }
  // Begin (or restart) the heating watch if we are well below target.
  if (z.current_c < z.target_c - z.cfg->protection.hysteresis_c) {
    z.watch = WatchState::kFirstHeating;
    z.watch_ref_c = z.current_c;
    z.watch_deadline =
        sched_.now() + sim::from_seconds(z.cfg->protection.watch_period_s);
  } else {
    z.watch = WatchState::kStable;
    z.runaway_armed = false;
  }
}

bool ThermalManager::at_target(Heater h) const {
  const Zone& z = zone(h);
  if (z.target_c <= 0.0) return true;
  return std::abs(z.current_c - z.target_c) <= config_.temp_reached_band_c;
}

void ThermalManager::control_tick(std::uint64_t gen) {
  if (gen != generation_ || !running_) return;
  control_zone(Heater::kHotend);
  control_zone(Heater::kBed);
  sched_.schedule_in(config_.thermal_period,
                     [this, gen] { control_tick(gen); });
}

double ThermalManager::compute_pid(Zone& z, double dt_s) const {
  const PidGains& g = z.cfg->pid;
  const double error = z.target_c - z.current_c;
  z.integral += error * dt_s;
  // Anti-windup: keep the integral term's contribution within [0, 1].
  if (g.ki > 0.0) {
    z.integral = std::clamp(z.integral, 0.0, 1.0 / g.ki);
  }
  const double d_temp = (z.current_c - z.prev_temp_c) / dt_s;
  const double u = g.kp * error + g.ki * z.integral - g.kd * d_temp;
  return std::clamp(u, 0.0, 1.0);
}

void ThermalManager::control_zone(Heater h) {
  Zone& z = zone(h);
  const double dt_s = sim::to_seconds(config_.thermal_period);
  z.prev_temp_c = z.current_c;
  z.current_c = therm_.temperature(z.adc->value());

  // Hard cutoffs first, active regardless of target (sensor faults and
  // overheat are dangerous even when "off" - e.g. Trojan T7 heating a
  // disabled element).
  if (z.current_c > z.cfg->max_temp_c) {
    raise_fault(h, ThermalFault::kMaxTemp);
    return;
  }
  if (z.current_c < z.cfg->min_temp_c) {
    raise_fault(h, ThermalFault::kMinTemp);
    return;
  }

  if (z.target_c <= 0.0) {
    if (z.duty != 0.0) {
      z.duty = 0.0;
      z.pwm.set_duty(0.0);
    }
    return;
  }

  if (z.cfg->use_pid) {
    z.duty = compute_pid(z, dt_s);
  } else {
    // Bang-bang with hysteresis.
    if (z.current_c < z.target_c - z.cfg->bang_hysteresis_c) {
      z.duty = 1.0;
    } else if (z.current_c > z.target_c) {
      z.duty = 0.0;
    }
  }
  z.pwm.set_duty(z.duty);

  check_protection(h);
}

void ThermalManager::check_protection(Heater h) {
  Zone& z = zone(h);
  const ThermalProtection& p = z.cfg->protection;
  const sim::Tick now = sched_.now();

  switch (z.watch) {
    case WatchState::kInactive:
      break;
    case WatchState::kFirstHeating:
      if (z.current_c >= z.target_c - p.hysteresis_c) {
        z.watch = WatchState::kStable;
        z.runaway_armed = false;
        break;
      }
      if (now >= z.watch_deadline) {
        if (z.current_c < z.watch_ref_c + p.watch_increase_c) {
          raise_fault(h, ThermalFault::kHeatingFailed);
          return;
        }
        z.watch_ref_c = z.current_c;
        z.watch_deadline = now + sim::from_seconds(p.watch_period_s);
      }
      break;
    case WatchState::kStable:
      if (z.current_c < z.target_c - p.hysteresis_c) {
        if (!z.runaway_armed) {
          z.runaway_armed = true;
          z.runaway_deadline =
              now + sim::from_seconds(p.protection_period_s);
        } else if (now >= z.runaway_deadline) {
          raise_fault(h, ThermalFault::kThermalRunaway);
          return;
        }
      } else {
        z.runaway_armed = false;
      }
      break;
  }
}

void ThermalManager::raise_fault(Heater h, ThermalFault f) {
  if (fault_ != ThermalFault::kNone) return;  // first fault wins
  fault_ = f;
  shutdown();
  if (on_kill_) on_kill_(h, f);
}

}  // namespace offramps::fw
