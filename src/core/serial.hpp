// Wire-level UART (8N1) between the FPGA and the host.
//
// The paper's monitoring design streams 16-byte transactions over a UART;
// its Limitations section calls out the lack of a faster interface as the
// bound on capture rate.  Modelling the link at bit level makes that
// bound a measurable property: a transaction occupies 16 frames x 10 bits
// at the configured baud rate, and the transmitter queues (then visibly
// saturates) when transactions arrive faster than the line drains.
//
//   UartTx  - drives a TX net with start/8xdata(LSB first)/stop frames,
//             back to back, from a byte queue.  A byte that starts while
//             the net has no live listener (no receiver, tap or trace)
//             skips the waveform: one event ten bit times later instead of
//             ten per-bit events, with the same byte boundaries (under a
//             timing fault, one jittered event instead of ten).
//   UartRx  - samples the net like a hardware UART: arms on the falling
//             start edge, samples each bit at its midpoint, validates the
//             stop bit (framing errors are counted, the byte dropped).
//   TransactionDecoder - reassembles framed transactions (sync magic +
//             index + counts + CRC, `Transaction::kFrameSize` bytes) with
//             three recovery mechanisms: magic hunting re-acquires byte
//             alignment after drops/duplications, CRC validation discards
//             bit-flipped frames, and a long inter-byte gap resets the
//             accumulator outright.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <span>

#include "core/capture.hpp"
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

/// Serial receiver sampling `line`.
class UartRx {
 public:
  using ByteCallback = std::function<void(std::uint8_t, sim::Tick)>;

  UartRx(sim::Scheduler& sched, sim::Wire& line, std::uint32_t baud);
  ~UartRx();

  UartRx(const UartRx&) = delete;
  UartRx& operator=(const UartRx&) = delete;

  void on_byte(ByteCallback cb) { on_byte_ = std::move(cb); }

  [[nodiscard]] std::uint64_t bytes_received() const { return received_; }
  [[nodiscard]] std::uint64_t framing_errors() const { return errors_; }

 private:
  void arm();
  void sample_bit(std::uint32_t bit_index, std::uint64_t gen);

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

/// Reassembles framed step-count transactions from a byte stream.
///
/// Degradation behaviour (what the fault campaigns exercise):
///  - a byte that cannot start a frame is discarded while hunting for the
///    two-byte sync magic, so dropped/duplicated bytes cost at most one
///    frame before alignment is re-acquired;
///  - a complete frame whose CRC fails is discarded (counted in
///    crc_errors()), never delivered as a bogus count sample;
///  - frames repeating the previous frame's embedded index are dropped as
///    wire-level duplicates;
///  - a gap longer than `resync_gap` between bytes resets the accumulator.
class TransactionDecoder {
 public:
  using TransactionCallback = std::function<void(const Transaction&)>;

  explicit TransactionDecoder(sim::Tick resync_gap = sim::ms(20))
      : resync_gap_(resync_gap) {}

  /// Feeds one received byte (wire time `t`).
  void feed(std::uint8_t byte, sim::Tick t);

  void on_transaction(TransactionCallback cb) { on_txn_ = std::move(cb); }

  [[nodiscard]] const Capture& capture() const { return capture_; }
  [[nodiscard]] Capture take_capture() { return std::move(capture_); }
  /// Accumulator resets from inter-byte gaps or mid-frame magic loss.
  [[nodiscard]] std::uint64_t resyncs() const { return resyncs_; }
  /// Complete frames discarded for a CRC mismatch.
  [[nodiscard]] std::uint64_t crc_errors() const { return crc_errors_; }
  /// Bytes discarded while hunting for the sync magic.
  [[nodiscard]] std::uint64_t hunted_bytes() const { return hunted_bytes_; }
  /// Valid frames dropped because they repeated the previous index.
  [[nodiscard]] std::uint64_t duplicates_dropped() const {
    return duplicates_dropped_;
  }

 private:
  void resync_within_buffer();

  sim::Tick resync_gap_;
  std::array<std::uint8_t, Transaction::kFrameSize> buffer_{};
  std::size_t fill_ = 0;
  sim::Tick last_byte_at_ = 0;
  bool have_last_index_ = false;
  std::uint32_t last_index_ = 0;
  std::uint64_t resyncs_ = 0;
  std::uint64_t crc_errors_ = 0;
  std::uint64_t hunted_bytes_ = 0;
  std::uint64_t duplicates_dropped_ = 0;
  Capture capture_;
  TransactionCallback on_txn_;
};

}  // namespace offramps::core
