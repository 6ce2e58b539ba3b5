// Test-support UART receiver: the oracle that `core::UartTx`'s bit-level
// waveform is checked against.  No run decodes the TX line (the fleet and
// the CLIs read transactions from the reporter's tap), so this lives with
// the tests rather than in src/.
#pragma once

#include <cstdint>
#include <functional>

#include "sim/error.hpp"
#include "sim/scheduler.hpp"
#include "sim/wire.hpp"

namespace offramps::test {

/// Samples `line` like a hardware UART: arms on the falling start edge,
/// samples each bit at its midpoint, and validates the stop bit (a
/// framing error is counted and the byte dropped).
class UartRx {
 public:
  using ByteCallback = std::function<void(std::uint8_t, sim::Tick)>;

  UartRx(sim::Scheduler& sched, sim::Wire& line, std::uint32_t baud)
      : sched_(sched), line_(line) {
    if (baud == 0) throw Error("UartRx: baud rate must be positive");
    bit_time_ = sim::kTicksPerSecond / baud;
    listener_ = line_.on_falling([this](sim::Tick) {
      if (receiving_) return;
      receiving_ = true;
      shift_ = 0;
      const auto gen = ++generation_;
      // First data bit midpoint: 1.5 bit times after the start edge.
      sched_.schedule_in(bit_time_ + bit_time_ / 2,
                         [this, gen] { sample_bit(0, gen); });
    });
  }
  ~UartRx() { line_.remove_listener(listener_); }

  UartRx(const UartRx&) = delete;
  UartRx& operator=(const UartRx&) = delete;

  void on_byte(ByteCallback cb) { on_byte_ = std::move(cb); }

  [[nodiscard]] std::uint64_t bytes_received() const { return received_; }
  [[nodiscard]] std::uint64_t framing_errors() const { return errors_; }

 private:
  void sample_bit(std::uint32_t bit_index, std::uint64_t gen) {
    if (gen != generation_) return;
    if (bit_index < 8) {
      if (line_.level()) shift_ |= static_cast<std::uint8_t>(1u << bit_index);
      sched_.schedule_in(bit_time_, [this, gen, bit_index] {
        sample_bit(bit_index + 1, gen);
      });
      return;
    }
    // Stop bit sample.
    receiving_ = false;
    if (!line_.level()) {
      ++errors_;  // framing error: byte discarded
      return;
    }
    ++received_;
    if (on_byte_) on_byte_(shift_, sched_.now());
  }

  sim::Scheduler& sched_;
  sim::Wire& line_;
  sim::Tick bit_time_;
  sim::Wire::ListenerId listener_ = 0;
  bool receiving_ = false;
  std::uint8_t shift_ = 0;
  std::uint64_t generation_ = 0;
  std::uint64_t received_ = 0;
  std::uint64_t errors_ = 0;
  ByteCallback on_byte_;
};

}  // namespace offramps::test
