// Pulse Generation Module (paper section IV-B).
//
// "handles the generation of pulses for the stepper motor drivers, and
// allows for the customization of both frequency and pulse width, along
// with input parameters for micro stepping determined by the printer
// configuration."
//
// The generator emits bursts of injection pulses onto a SignalPath,
// FPGA-clock aligned.  A burst is a pulse count, a period and a width:
// the Trojan configurations size their shifts in pulses, with the
// millimeters they mean at the axis's steps/mm noted beside them.
#pragma once

#include <cstdint>

#include "core/signal_path.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace offramps::core {

/// Burst parameters.
struct PulseTrain {
  std::uint32_t count = 0;            // pulses to emit
  sim::Tick period = sim::us(50);     // pulse-to-pulse spacing
  sim::Tick width = sim::us(1);       // high time per pulse
};

/// Configurable stepper-pulse generator bound to one signal path.
class PulseGenerator {
 public:
  PulseGenerator(sim::Scheduler& sched, SignalPath& path)
      : sched_(sched), path_(path) {}

  PulseGenerator(const PulseGenerator&) = delete;
  PulseGenerator& operator=(const PulseGenerator&) = delete;

  /// Emits `train.count` pulses starting now.  Bursts may overlap; each
  /// pulse defers independently if the line is busy (SignalPath
  /// semantics).  All start times are aligned to the fabric clock.
  void burst(const PulseTrain& train);

  [[nodiscard]] std::uint64_t pulses_emitted() const { return emitted_; }

 private:
  sim::Scheduler& sched_;
  SignalPath& path_;
  std::uint64_t emitted_ = 0;
};

}  // namespace offramps::core
