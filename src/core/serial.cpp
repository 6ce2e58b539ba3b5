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

}  // namespace offramps::core
