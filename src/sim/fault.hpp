// Declarative fault-injection engine.
//
// A `FaultSpec` names one physical fault - a stuck or glitching digital
// net, a drifting/open/shorted analog sensor, a corrupted serial byte
// stream, or bounded scheduler timing jitter - with an activation window,
// an intensity, and its own RNG seed so campaigns are exactly
// reproducible cell by cell.  The `FaultInjector` binds specs to concrete
// wires/channels/streams and drives engagement and disengagement from the
// scheduler, which is what lets a campaign sweep fault type x intensity
// over otherwise identical prints.
//
// Design rule: the no-fault path must stay near-free.  Faults act through
// dedicated hooks (`Wire::force_fault`, `AnalogChannel::set_fault`,
// `Scheduler::set_time_warp`, byte-stream corruptors installed only when a
// stream fault is armed); an idle hook costs one predictable branch.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/rng.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"
#include "sim/wire.hpp"

namespace offramps::sim {

/// The fault classes the engine can inject.
enum class FaultKind : std::uint8_t {
  // Digital wires (STEP/DIR/EN, endstops, heater gates).
  kStuckHigh,   // net shorted to the supply for the window
  kStuckLow,    // net shorted to ground for the window
  kGlitch,      // spurious pulses; intensity = mean glitches per second
  // Analog channels (thermistor dividers, in ADC counts).
  kAnalogOpen,   // broken wire: divider rails to full scale (1023)
  kAnalogShort,  // shorted divider: reads 0
  kAnalogDrift,  // offset ramp; intensity = ADC counts of drift per second
  // Serial byte streams (UART transaction frames).
  kUartBitFlip,   // intensity = per-byte probability of one flipped bit
  kUartDropByte,  // intensity = per-byte drop probability
  kUartDupByte,   // intensity = per-byte duplication probability
  // Scheduler timing.
  kTimingJitter,  // intensity = max added event latency, microseconds
};

const char* fault_kind_name(FaultKind k);

[[nodiscard]] bool fault_targets_digital(FaultKind k);
[[nodiscard]] bool fault_targets_analog(FaultKind k);
[[nodiscard]] bool fault_targets_stream(FaultKind k);
[[nodiscard]] bool fault_targets_timing(FaultKind k);

/// One declarative fault.
struct FaultSpec {
  FaultKind kind = FaultKind::kGlitch;
  /// Target net name, e.g. "X_STEP", "X_MIN", "THERM_HOTEND", "uart".
  /// Purely descriptive inside sim; binding to a concrete Wire/channel is
  /// the caller's job (host::Rig resolves names against the board).
  std::string target;
  /// Kind-specific magnitude (see FaultKind).  Zero disarms the fault
  /// entirely - the conventional "control cell" of a campaign sweep.
  double intensity = 1.0;
  /// Activation window, simulation time.  stop == 0 means "until the end".
  Tick start = 0;
  Tick stop = 0;
  /// Per-fault RNG seed: every cell of a sweep is independently seeded.
  std::uint64_t seed = 0x0ffa;
  /// Width of injected glitch pulses (kGlitch only).
  Tick glitch_width = us(2);

  [[nodiscard]] bool enabled() const { return intensity > 0.0; }
  [[nodiscard]] bool window_contains(Tick t) const {
    return t >= start && (stop == 0 || t < stop);
  }
  /// "kind@target i=... window=[a,b)" one-liner for logs and reports.
  [[nodiscard]] std::string describe() const;
};

/// Binds fault specs to simulation objects and runs their windows.
/// Must outlive the simulation it injects into (armed faults hold
/// references to the wires and channels they corrupt).
class FaultInjector {
 public:
  /// Corruptor for one in-flight chunk of serial bytes (a transaction
  /// frame).  May flip bits, erase or duplicate bytes in place.
  using StreamFault = std::function<void(std::vector<std::uint8_t>&)>;

  explicit FaultInjector(Scheduler& sched) : sched_(sched) {}
  ~FaultInjector();

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Arms a stuck-at or glitch fault on `wire`.  Engagement and release
  /// are scheduled from the spec's window; a zero-intensity spec is a
  /// recorded no-op.
  void inject_digital(const FaultSpec& spec, Wire& wire);

  /// Arms a drift/open/short fault on `channel`.
  void inject_analog(const FaultSpec& spec, AnalogChannel& channel);

  /// Arms bounded timing jitter on the scheduler for the spec's window.
  /// An event's delay is a pure function of the spec's seed and the
  /// event's requested tick, so it does not depend on which other events
  /// exist.  Only one timing fault may be active at a time (they would
  /// compose unpredictably); arming a second one throws.
  void inject_timing(const FaultSpec& spec);

  /// Builds a byte-stream corruptor for a kUart* spec.  The caller
  /// installs it where bytes flow (e.g. core::UartReporter's frame-fault
  /// hook); it only corrupts inside the spec's window.
  [[nodiscard]] StreamFault make_stream_fault(const FaultSpec& spec);

  /// Observability: everything the engine did, for campaign reports.
  struct Stats {
    std::uint64_t stuck_engagements = 0;
    std::uint64_t glitches = 0;
    std::uint64_t analog_engagements = 0;
    std::uint64_t bytes_flipped = 0;
    std::uint64_t bytes_dropped = 0;
    std::uint64_t bytes_duplicated = 0;
    std::uint64_t timing_windows = 0;
    [[nodiscard]] std::uint64_t total() const {
      return stuck_engagements + glitches + analog_engagements +
             bytes_flipped + bytes_dropped + bytes_duplicated +
             timing_windows;
    }
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }
  /// Specs armed (including zero-intensity no-ops).
  [[nodiscard]] std::size_t armed() const { return armed_; }

 private:
  struct GlitchState;
  void schedule_glitch(const std::shared_ptr<GlitchState>& st);

  Scheduler& sched_;
  Stats stats_;
  std::size_t armed_ = 0;
  bool timing_armed_ = false;
  bool owns_time_warp_ = false;
  /// Keeps per-fault RNGs alive for the callbacks that capture them.
  std::vector<std::shared_ptr<Rng>> rngs_;
};

}  // namespace offramps::sim
