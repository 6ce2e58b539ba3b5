#include "core/serial.hpp"

#include "sim/error.hpp"

namespace offramps::core {

// --- UartTx -------------------------------------------------------------------

UartTx::UartTx(sim::Scheduler& sched, sim::Wire& line, std::uint32_t baud)
    : sched_(sched), line_(line), created_at_(sched.now()) {
  if (baud == 0) throw Error("UartTx: baud rate must be positive");
  bit_time_ = sim::kTicksPerSecond / baud;
  line_.set(true);  // idle high
}

void UartTx::send(std::span<const std::uint8_t> bytes) {
  for (const auto b : bytes) queue_.push_back(b);
  max_queue_ = std::max(max_queue_, queue_.size());
  if (!busy_) start_frame();
}

void UartTx::start_frame() {
  if (queue_.empty()) {
    busy_ = false;
    return;
  }
  busy_ = true;
  current_ = queue_.front();
  queue_.pop_front();
  const auto gen = ++generation_;
  if (line_.live_listeners() == 0) {
    // Nobody samples the line: skip the waveform, keep the byte timing.
    sched_.schedule_in(bit_time_ * 10, [this, gen] {
      if (gen == generation_) end_frame();
    });
    return;
  }
  line_.set(false);  // start bit
  emit_bit(0, gen);
}

void UartTx::end_frame() {
  ++bytes_sent_;
  busy_time_ += bit_time_ * 10;
  start_frame();
}

void UartTx::emit_bit(std::uint32_t bit_index, std::uint64_t gen) {
  sched_.schedule_in(bit_time_, [this, bit_index, gen] {
    if (gen != generation_) return;
    if (bit_index < 8) {
      line_.set((current_ >> bit_index) & 1);
      emit_bit(bit_index + 1, gen);
      return;
    }
    if (bit_index == 8) {
      line_.set(true);  // stop bit
      emit_bit(9, gen);
      return;
    }
    end_frame();  // stop bit complete
  });
}

double UartTx::utilization() const {
  const sim::Tick elapsed = sched_.now() - created_at_;
  if (elapsed == 0) return 0.0;
  return static_cast<double>(busy_time_) / static_cast<double>(elapsed);
}

// --- UartRx -------------------------------------------------------------------

UartRx::UartRx(sim::Scheduler& sched, sim::Wire& line, std::uint32_t baud)
    : sched_(sched), line_(line) {
  if (baud == 0) throw Error("UartRx: baud rate must be positive");
  bit_time_ = sim::kTicksPerSecond / baud;
  arm();
}

UartRx::~UartRx() { line_.remove_listener(listener_); }

void UartRx::arm() {
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

void UartRx::sample_bit(std::uint32_t bit_index, std::uint64_t gen) {
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

// --- TransactionDecoder ---------------------------------------------------------

void TransactionDecoder::feed(std::uint8_t byte, sim::Tick t) {
  if (fill_ > 0 && last_byte_at_ != 0 && t - last_byte_at_ > resync_gap_) {
    // Mid-frame silence: we lost bytes somewhere; realign on this one.
    fill_ = 0;
    ++resyncs_;
  }
  last_byte_at_ = t;
  // Hunt for the frame boundary: a frame must open with the sync magic.
  if (fill_ == 0 && byte != Transaction::kMagic0) {
    ++hunted_bytes_;
    return;
  }
  if (fill_ == 1 && byte != Transaction::kMagic1) {
    fill_ = 0;
    ++resyncs_;
    if (byte == Transaction::kMagic0) {
      buffer_[fill_++] = byte;  // this byte may itself open the real frame
    } else {
      ++hunted_bytes_;
    }
    return;
  }
  buffer_[fill_++] = byte;
  if (fill_ < buffer_.size()) return;
  fill_ = 0;
  const auto txn = Transaction::from_frame(buffer_, t);
  if (!txn.has_value()) {
    // CRC mismatch.  A dropped byte mid-frame means the next frame's
    // opening magic is sitting somewhere inside this buffer; re-hunting
    // within it recovers a frame earlier than waiting for fresh bytes.
    ++crc_errors_;
    resync_within_buffer();
    return;
  }
  if (have_last_index_ && txn->index == last_index_) {
    ++duplicates_dropped_;  // wire-level duplicate of the previous frame
    return;
  }
  have_last_index_ = true;
  last_index_ = txn->index;
  capture_.transactions.push_back(*txn);
  for (std::size_t i = 0; i < 4; ++i) {
    capture_.final_counts[i] = txn->counts[i];
  }
  if (on_txn_) on_txn_(*txn);
}

void TransactionDecoder::resync_within_buffer() {
  // Find the next magic pair past the failed frame's first byte and keep
  // the tail as the start of the next accumulation.
  for (std::size_t i = 1; i + 1 < buffer_.size(); ++i) {
    if (buffer_[i] == Transaction::kMagic0 &&
        buffer_[i + 1] == Transaction::kMagic1) {
      const std::size_t tail = buffer_.size() - i;
      for (std::size_t j = 0; j < tail; ++j) buffer_[j] = buffer_[i + j];
      fill_ = tail;
      ++resyncs_;
      return;
    }
  }
  // A trailing magic byte alone might pair with the next incoming byte.
  if (buffer_.back() == Transaction::kMagic0) {
    buffer_[0] = Transaction::kMagic0;
    fill_ = 1;
    ++resyncs_;
  }
}

}  // namespace offramps::core
