// Wire-level UART (8N1) from the FPGA towards the host.
//
// The paper's monitoring design streams its transactions over a UART;
// its Limitations section calls out the lack of a faster interface as the
// bound on capture rate.  Modelling the link at bit level makes that
// bound a measurable property: a framed transaction occupies
// `Transaction::kFrameSize` frames x 10 bits at the configured baud rate,
// and the transmitter queues (then visibly saturates) when transactions
// arrive faster than the line drains.
//
// UartTx drives a TX net with start/8xdata(LSB first)/stop frames, back
// to back, from a byte queue.  A byte that starts while the net has no
// live listener (no trace or receiver) skips the waveform: one event
// ten bit times later instead of ten per-bit events, with the same
// byte boundaries (under a timing fault, one jittered event instead of
// ten).  The simulation reads transactions from the reporter's tap, not
// from this line; the waveform is what a trace of `fpga.UART_TX` shows.
#pragma once

#include <cstdint>
#include <deque>
#include <span>

#include "sim/scheduler.hpp"
#include "sim/wire.hpp"

namespace offramps::core {

/// Serial transmitter driving `line` (idle high).
class UartTx {
 public:
  UartTx(sim::Scheduler& sched, sim::Wire& line, std::uint32_t baud);

  UartTx(const UartTx&) = delete;
  UartTx& operator=(const UartTx&) = delete;

  /// Queues bytes for transmission.  Transmission starts immediately when
  /// the line is idle.
  void send(std::span<const std::uint8_t> bytes);

  [[nodiscard]] bool busy() const { return busy_; }
  [[nodiscard]] std::size_t queued() const { return queue_.size(); }
  [[nodiscard]] std::uint64_t bytes_sent() const { return bytes_sent_; }
  /// High-water mark of the byte queue (link saturation evidence).
  [[nodiscard]] std::size_t max_queue_depth() const { return max_queue_; }
  /// Duration of one bit on the line.
  [[nodiscard]] sim::Tick bit_time() const { return bit_time_; }
  /// Time to serialize `n` bytes (10 bits per 8N1 frame).
  [[nodiscard]] sim::Tick frame_time(std::size_t n) const {
    return bit_time_ * 10 * static_cast<sim::Tick>(n);
  }
  /// Fraction of elapsed time the line spent transmitting.
  [[nodiscard]] double utilization() const;

 private:
  void start_frame();
  void emit_bit(std::uint32_t bit_index, std::uint64_t gen);
  void end_frame();

  sim::Scheduler& sched_;
  sim::Wire& line_;
  sim::Tick bit_time_;
  std::deque<std::uint8_t> queue_;
  bool busy_ = false;
  std::uint8_t current_ = 0;
  std::uint64_t generation_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::size_t max_queue_ = 0;
  sim::Tick busy_time_ = 0;
  sim::Tick created_at_ = 0;
};

}  // namespace offramps::core
