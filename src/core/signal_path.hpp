// One FPGA-routed signal path of the OFFRAMPS board.
//
// In MITM mode every intercepted net passes through the fabric as:
//
//     in (5V) -> level shifter -> FPGA routing -> shifter -> out (5V)
//
// modelled as a fixed per-net propagation delay (the paper measures a
// 12.923 ns worst case).  On top of the combinational pass-through, the
// Trojan control module can:
//   * force the output to a constant level (T6 heater-off, T7 heater-on,
//     T8 driver disable, T9 fan re-modulation),
//   * drop selected input pulses (T2 extrusion masking, T3 retraction
//     tampering), and
//   * inject extra pulses between the original ones (T1 axis shifts,
//     T4 layer shifts, T5 Z shifts).
// The output is the OR of the (possibly filtered) pass-through level and
// the injection level, overridden entirely while forced - i.e. the
// multiplexer structure of the paper's Trojan Control Module.
//
// A pulse fall that lands on the input without an event (sim::Wire::pulse)
// is passed on as one on the output, `prop_delay` later, when the rise
// reaches the output (sim::Wire::forward_rise): no propagation event is
// scheduled for it.  The path reads its input's falls as events instead
// while anything may see the difference: a reader of the output's falls,
// a fault on it, a force or an injection in progress, a pulse filter
// dropping the pulse, or a Trojan suite armed on the board
// (keep_fall_events).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "sim/scheduler.hpp"
#include "sim/wire.hpp"

namespace offramps::core {

/// FPGA-mediated connection from `in` to `out`.
class SignalPath final : private sim::FallSource {
 public:
  /// Predicate consulted on each input rising edge while pass-through is
  /// live; returning false drops that entire pulse (rising + falling).
  using PulseFilter = std::function<bool()>;

  SignalPath(sim::Scheduler& sched, sim::Wire& in, sim::Wire& out,
             sim::Tick prop_delay);
  ~SignalPath();

  SignalPath(const SignalPath&) = delete;
  SignalPath& operator=(const SignalPath&) = delete;

  /// Routes (true) or isolates (false) this path.  While inactive the
  /// output is not driven by this path at all (the board's direct jumpers
  /// own the net instead).
  void set_active(bool active);
  [[nodiscard]] bool active() const { return active_; }

  /// Forces the output to a constant level, or releases the force
  /// (nullopt) so the pass-through level shows through again.
  void force(std::optional<bool> level);
  [[nodiscard]] std::optional<bool> forced() const { return forced_; }

  /// Installs (or clears, with nullptr) the pulse filter.
  void set_pulse_filter(PulseFilter filter);

  /// Makes the path read every input fall as an event: a Trojan hook may
  /// filter, force or inject on it at any time (TrojanController::arm).
  void keep_fall_events();

  /// Injects one positive pulse of `width` onto the output.  If the output
  /// is currently high, the injection retries after `width` so distinct
  /// pulses never merge (the paper's pulse generator waits for a gap
  /// "in between the original control pulses").
  void inject_pulse(sim::Tick width);

  /// Pulses forwarded, dropped by the filter, and injected.
  [[nodiscard]] std::uint64_t passed_pulses() const { return passed_; }
  [[nodiscard]] std::uint64_t dropped_pulses() const { return dropped_; }
  [[nodiscard]] std::uint64_t injected_pulses() const { return injected_; }

  [[nodiscard]] sim::Tick prop_delay() const { return delay_; }
  [[nodiscard]] sim::Wire& input() { return in_; }
  [[nodiscard]] sim::Wire& output() { return out_; }

 private:
  void on_input_edge(sim::Edge e);
  void deliver_rise();
  /// True while the output's level is more than the delayed input's: the
  /// path then reads its input's falls as edges.
  [[nodiscard]] bool reads_falls() const {
    return keep_fall_events_ || forced_.has_value() || inj_level_;
  }
  void update_output();
  /// Before the path acts on pass_level_: a fall it forwarded without an
  /// event that has not landed becomes its propagation event; one that
  /// has landed takes pass_level_ low.
  void settle_forwarded_fall();
  void file_fall(sim::Tick t, std::uint64_t seq) override;
  void fall_dropped() override { forwarded_ = false; }

  sim::Scheduler& sched_;
  sim::Wire& in_;
  sim::Wire& out_;
  sim::Tick delay_;
  sim::Wire::ListenerId listener_ = 0;

  bool active_ = false;
  std::optional<bool> forced_;
  PulseFilter filter_;
  bool suppressing_pulse_ = false;  // current input pulse is being dropped

  bool pass_level_ = false;  // pass-through contribution (post delay)
  bool inj_level_ = false;   // injection contribution
  bool keep_fall_events_ = false;
  bool forwarded_ = false;   // out_ holds a fall this path passed on

  std::uint64_t passed_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t injected_ = 0;
};

}  // namespace offramps::core
