// Stepper engine: executes one planned segment at a time by scheduling
// STEP/DIR pulse edges onto the firmware's output pins, the role Marlin's
// stepper ISR plays on the ATmega.
//
// Pulse timing follows the planner's trapezoid: the dominant axis steps at
// the integrated step rate while the other axes follow by Bresenham
// accumulation (all axes due on a tick pulse simultaneously, as in the real
// ISR).  Segments can be aborted asynchronously - either explicitly (kill)
// or by an endstop edge during homing - and always report the steps
// actually emitted, which is how the firmware tracks true position.
#pragma once

#include <array>
#include <cstdint>
#include <functional>

#include "fw/config.hpp"
#include "fw/planner.hpp"
#include "sim/pins.hpp"
#include "sim/scheduler.hpp"

namespace offramps::fw {

/// Drives the STEP/DIR/EN pins of one pin bank.
class StepperEngine {
 public:
  /// `io` is the firmware-side pin bank (the Arduino header).
  StepperEngine(sim::Scheduler& sched, sim::PinBank& io,
                const Config& config);
  ~StepperEngine();

  StepperEngine(const StepperEngine&) = delete;
  StepperEngine& operator=(const StepperEngine&) = delete;

  /// Completion callback: `aborted` is true when the segment ended early
  /// (endstop hit or abort()); `executed` holds the signed steps emitted.
  using Completion =
      std::function<void(bool aborted, std::array<std::int64_t, 4> executed)>;

  /// Begins executing `seg`.  Asserts EN for every moving axis, applies the
  /// DIR setup time, then emits pulses.  Throws if already busy.
  void start(const Segment& seg, Completion on_done);

  /// True while a segment is in flight.
  [[nodiscard]] bool busy() const { return busy_; }

  /// Cancels the in-flight segment (no-op when idle).  The completion
  /// callback fires with aborted=true.
  void abort();

  /// Asserts (enable=true) or releases every axis' EN pin, as M17/M84 do.
  void set_all_enabled(bool enable);

  /// Total signed steps emitted over the engine's lifetime, per axis.
  [[nodiscard]] const std::array<std::int64_t, 4>& lifetime_steps() const {
    return lifetime_steps_;
  }

  /// Endstop trigger edges rejected by debounce (switch bounce/glitches).
  [[nodiscard]] std::uint64_t endstop_bounces_rejected() const {
    return endstop_bounces_rejected_;
  }

 private:
  void step_due(std::uint64_t gen);
  void confirm_endstop(std::uint64_t gen, std::uint32_t stable_samples);
  void finish(bool aborted);
  [[nodiscard]] sim::Tick interval_for_current_speed() const;

  sim::Scheduler& sched_;
  sim::PinBank& io_;
  const Config& config_;

  Segment seg_{};
  Completion on_done_;
  bool busy_ = false;
  std::uint64_t generation_ = 0;

  // Per-segment execution state.
  std::size_t dominant_ = 0;
  std::int64_t total_steps_ = 0;   // dominant-axis steps to emit
  std::int64_t done_steps_ = 0;
  std::array<std::int64_t, 4> bres_err_{};
  std::array<std::int64_t, 4> executed_{};   // signed, current segment
  std::array<int, 4> step_sign_{};           // -1, 0, +1 per axis
  double speed_sps_ = 0.0;

  // Homing endstop watch.
  sim::Wire::ListenerId endstop_listener_ = 0;
  bool watching_endstop_ = false;
  bool debouncing_endstop_ = false;
  std::uint64_t endstop_bounces_rejected_ = 0;

  std::array<std::int64_t, 4> lifetime_steps_{};
};

}  // namespace offramps::fw
