// Bounded single-producer/single-consumer ring buffer.
//
// The fleet service decouples a rig's capture tap (producer: the UART
// reporter callback, firing in simulation time) from its online detector
// (consumer: the clock-slaved pump, draining in batches) through one of
// these per rig.  Capacity is fixed at construction, so a stalled
// consumer bounds memory instead of growing a queue without limit; the
// occupancy high-water mark makes backpressure observable from the fleet
// report.
//
// Within one rig the producer and consumer run on the same simulation
// thread (scheduler callbacks), so no atomics are needed - the SPSC
// discipline here is structural: exactly one pushing site and one
// popping site, never reentrantly.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "sim/error.hpp"

namespace offramps::sim {

/// Fixed-capacity FIFO of `T` with occupancy accounting.
template <typename T>
class RingBuffer {
 public:
  explicit RingBuffer(std::size_t capacity) : slots_(capacity) {
    if (capacity == 0) {
      throw Error("RingBuffer: capacity must be at least 1");
    }
  }

  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] bool full() const { return size_ == slots_.size(); }

  /// Appends `value`; returns false (value untouched) when full.
  [[nodiscard]] bool try_push(T value) {
    if (full()) return false;
    slots_[(head_ + size_) % slots_.size()] = std::move(value);
    ++size_;
    if (size_ > high_water_) high_water_ = size_;
    return true;
  }

  /// Moves the oldest element into `out`; returns false when empty.
  [[nodiscard]] bool try_pop(T& out) {
    if (empty()) return false;
    out = std::move(slots_[head_]);
    head_ = (head_ + 1) % slots_.size();
    --size_;
    return true;
  }

  /// Highest occupancy ever reached (the backpressure gauge).
  [[nodiscard]] std::size_t high_water() const { return high_water_; }

 private:
  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::size_t high_water_ = 0;
};

}  // namespace offramps::sim
