// FPGA monitoring modules (paper sections IV-B and V-B).
//
//  * EdgeDetector    - clock-synchronized edge events: the fabric samples
//                      at 100 MHz, so an input edge is observed at the next
//                      clock boundary.
//  * HomingDetector  - FSM tracking endstop actuation in the homing order
//                      (X, then Y, then Z; each axis triggers, releases on
//                      the back-off, and re-triggers on the slow bump).
//                      Fires once when the print head has homed - the
//                      activation point for Trojans and step counting.
//  * AxisTracker     - signed step counter per axis (STEP edges signed by
//                      the DIR level), armed after homing.
//  * LayerMonitor    - detects Z "layer increment" events from Z_STEP
//                      activity bursts (used by Trojan T4's trigger).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "sim/pins.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"
#include "sim/wire.hpp"

namespace offramps::core {

/// Clock-synchronized edge detector: callbacks fire on the first FPGA
/// clock edge at or after the signal transition.
class EdgeDetector {
 public:
  using Callback = std::function<void(sim::Edge, sim::Tick)>;

  /// `only`, when set, is the one edge the consumer reads: the other
  /// edge is dropped at the wire and schedules no clock-sync event.  A
  /// detector of rising edges only registers as such (Reads::kRisingEdges),
  /// so a STEP pulse's fall it does not read can land without an event.
  EdgeDetector(sim::Scheduler& sched, sim::Wire& wire, Callback cb,
               std::optional<sim::Edge> only = std::nullopt)
      : sched_(sched), wire_(wire), cb_(std::move(cb)) {
    id_ = wire.on_edge(
        [this, only](sim::Edge e, sim::Tick t) {
          if (only && e != *only) return;
          const sim::Tick sampled = sim::align_to_fpga_clock(t);
          if (sampled == t) {
            cb_(e, t);
          } else {
            sched_.schedule_at(sampled,
                               [this, e, sampled] { cb_(e, sampled); });
          }
        },
        only == sim::Edge::kRising ? sim::Reads::kRisingEdges
                                   : sim::Reads::kEveryEdge);
  }

  EdgeDetector(const EdgeDetector&) = delete;
  EdgeDetector& operator=(const EdgeDetector&) = delete;
  ~EdgeDetector() { wire_.remove_listener(id_); }

 private:
  sim::Scheduler& sched_;
  sim::Wire& wire_;
  Callback cb_;
  sim::Wire::ListenerId id_ = 0;
};

/// Homing-detection FSM over the three min-endstop nets.
class HomingDetector {
 public:
  using HomedCallback = std::function<void(sim::Tick)>;

  HomingDetector(sim::Scheduler& sched, sim::Wire& x_min, sim::Wire& y_min,
                 sim::Wire& z_min);

  HomingDetector(const HomingDetector&) = delete;
  HomingDetector& operator=(const HomingDetector&) = delete;

  /// Adds a listener fired once when the full X->Y->Z sequence (trigger,
  /// release, re-trigger per axis) completes.  Multiple consumers (the
  /// UART reporter, the Trojan control module) can subscribe.
  void on_homed(HomedCallback cb) { on_homed_.push_back(std::move(cb)); }

  [[nodiscard]] bool homed() const { return homed_; }
  [[nodiscard]] sim::Tick homed_at() const { return homed_at_; }
  /// Endstop edges that did not fit the expected sequence (a simple
  /// anomaly signal: mid-print endstop chatter or out-of-order homing).
  [[nodiscard]] std::uint64_t out_of_order_events() const {
    return anomalies_;
  }

  /// True when the monitor is attached to live signals (board routing).
  void set_enabled(bool enabled) { enabled_ = enabled; }

 private:
  // Per-axis progression: rising (fast hit), falling (back-off), rising
  // (slow re-bump) = 3 sub-states; axes complete in X, Y, Z order.
  void on_endstop_edge(std::size_t axis, sim::Edge e, sim::Tick t);

  std::array<std::unique_ptr<EdgeDetector>, 3> detectors_;
  std::size_t current_axis_ = 0;
  int sub_state_ = 0;  // 0: await hit, 1: await release, 2: await re-hit
  bool homed_ = false;
  bool enabled_ = true;
  sim::Tick homed_at_ = 0;
  std::uint64_t anomalies_ = 0;
  std::vector<HomedCallback> on_homed_;
};

/// Signed step counter for one axis, Marlin-convention (DIR high = +).
class AxisTracker {
 public:
  AxisTracker(sim::Scheduler& sched, sim::Wire& step, sim::Wire& dir);

  AxisTracker(const AxisTracker&) = delete;
  AxisTracker& operator=(const AxisTracker&) = delete;

  /// Begins counting from zero.
  void arm();

  /// Hardware gate: when the board's jumpers take the FPGA out of
  /// circuit it receives no signals at all, so the tracker sees nothing
  /// regardless of its armed state.
  void set_connected(bool connected) { connected_ = connected; }

  [[nodiscard]] bool armed() const { return armed_; }
  [[nodiscard]] std::int64_t count() const { return count_; }
  /// True once at least one step was counted since arm().
  [[nodiscard]] bool saw_step() const { return saw_step_; }
  /// Time of the first counted step.
  [[nodiscard]] sim::Tick first_step_at() const { return first_step_at_; }

  /// Fired on the first counted step after arm().
  void on_first_step(std::function<void(sim::Tick)> cb) {
    on_first_step_ = std::move(cb);
  }

 private:
  EdgeDetector detector_;
  sim::Wire& dir_;
  bool armed_ = false;
  bool connected_ = true;
  bool saw_step_ = false;
  std::int64_t count_ = 0;
  sim::Tick first_step_at_ = 0;
  std::function<void(sim::Tick)> on_first_step_;
};

/// Detects layer-increment events: a Z_STEP burst after a quiet period.
class LayerMonitor {
 public:
  using LayerCallback = std::function<void(std::uint64_t layer_index)>;

  LayerMonitor(sim::Scheduler& sched, sim::Wire& z_step,
               sim::Tick quiet_gap = sim::ms(500));

  LayerMonitor(const LayerMonitor&) = delete;
  LayerMonitor& operator=(const LayerMonitor&) = delete;

  /// Adds a layer-event listener (multiple Trojans may subscribe).
  void on_layer(LayerCallback cb) { on_layer_.push_back(std::move(cb)); }
  [[nodiscard]] std::uint64_t layers_seen() const { return layers_; }

 private:
  EdgeDetector detector_;
  sim::Tick quiet_gap_;
  sim::Tick last_z_step_ = 0;
  std::uint64_t layers_ = 0;
  std::vector<LayerCallback> on_layer_;
};

}  // namespace offramps::core
