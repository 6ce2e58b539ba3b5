#include "core/monitor.hpp"

#include <memory>

namespace offramps::core {

HomingDetector::HomingDetector(sim::Scheduler& sched, sim::Wire& x_min,
                               sim::Wire& y_min, sim::Wire& z_min) {
  sim::Wire* wires[3] = {&x_min, &y_min, &z_min};
  for (std::size_t i = 0; i < 3; ++i) {
    detectors_[i] = std::make_unique<EdgeDetector>(
        sched, *wires[i], [this, i](sim::Edge e, sim::Tick t) {
          on_endstop_edge(i, e, t);
        });
  }
}

void HomingDetector::on_endstop_edge(std::size_t axis, sim::Edge e,
                                     sim::Tick t) {
  if (!enabled_) return;
  if (homed_) {
    // Any endstop activity after homing is unexpected during a print.
    ++anomalies_;
    return;
  }
  if (axis != current_axis_) {
    // A completed axis re-triggering is tolerated (mechanical bounce);
    // a *future* axis firing early is out of order.
    if (axis > current_axis_) ++anomalies_;
    return;
  }
  switch (sub_state_) {
    case 0:  // awaiting first (fast) hit
      if (e == sim::Edge::kRising) sub_state_ = 1;
      break;
    case 1:  // awaiting back-off release
      if (e == sim::Edge::kFalling) sub_state_ = 2;
      break;
    case 2:  // awaiting slow re-bump
      if (e == sim::Edge::kRising) {
        sub_state_ = 0;
        ++current_axis_;
        if (current_axis_ == 3) {
          homed_ = true;
          homed_at_ = t;
          for (const auto& cb : on_homed_) cb(t);
        }
      }
      break;
    default:
      break;
  }
}

AxisTracker::AxisTracker(sim::Scheduler& sched, sim::Wire& step,
                         sim::Wire& dir)
    : detector_(
          sched, step,
          [this](sim::Edge, sim::Tick t) {
            if (!armed_ || !connected_) return;
            count_ += dir_.level() ? 1 : -1;
            if (!saw_step_) {
              saw_step_ = true;
              first_step_at_ = t;
              if (on_first_step_) on_first_step_(t);
            }
          },
          sim::Edge::kRising),
      dir_(dir) {}

void AxisTracker::arm() {
  armed_ = true;
  count_ = 0;
  saw_step_ = false;
}

LayerMonitor::LayerMonitor(sim::Scheduler& sched, sim::Wire& z_step,
                           sim::Tick quiet_gap)
    : detector_(
          sched, z_step,
          [this](sim::Edge, sim::Tick t) {
            if (last_z_step_ == 0 || t - last_z_step_ > quiet_gap_) {
              ++layers_;
              for (const auto& cb : on_layer_) cb(layers_);
            }
            last_z_step_ = t;
          },
          sim::Edge::kRising),
      quiet_gap_(quiet_gap) {}

}  // namespace offramps::core
