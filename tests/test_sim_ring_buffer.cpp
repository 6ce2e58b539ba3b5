// sim::RingBuffer: the bounded SPSC queue under the fleet service's
// backpressure contract.  FIFO order, wraparound reuse of slots, and the
// occupancy accounting (size and high water) the fleet report surfaces.
#include <gtest/gtest.h>

#include <string>

#include "sim/error.hpp"
#include "sim/ring_buffer.hpp"

namespace {

using offramps::sim::RingBuffer;

TEST(RingBuffer, ZeroCapacityThrows) {
  EXPECT_THROW(RingBuffer<int>(0), offramps::Error);
}

TEST(RingBuffer, StartsEmpty) {
  RingBuffer<int> ring(4);
  EXPECT_EQ(ring.capacity(), 4u);
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_TRUE(ring.empty());
  EXPECT_FALSE(ring.full());
  int out = 0;
  EXPECT_FALSE(ring.try_pop(out));
}

TEST(RingBuffer, FifoOrder) {
  RingBuffer<int> ring(4);
  for (int v = 1; v <= 4; ++v) EXPECT_TRUE(ring.try_push(v));
  EXPECT_TRUE(ring.full());
  EXPECT_FALSE(ring.try_push(99));  // full: value rejected
  int out = 0;
  for (int v = 1; v <= 4; ++v) {
    EXPECT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out, v);
  }
  EXPECT_TRUE(ring.empty());
}

TEST(RingBuffer, WraparoundPreservesOrder) {
  RingBuffer<int> ring(3);
  int out = 0;
  // Keep the ring two-thirds full while head/tail lap the underlying
  // storage several times: push two ahead, then pop-one/push-one.
  ASSERT_TRUE(ring.try_push(0));
  ASSERT_TRUE(ring.try_push(1));
  for (int v = 2; v < 20; ++v) {
    ASSERT_TRUE(ring.try_push(v));
    ASSERT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out, v - 2);
  }
  // The steady state drains in order.
  for (int v = 18; v < 20; ++v) {
    ASSERT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out, v);
  }
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.high_water(), 3u);
}

TEST(RingBuffer, OccupancyAccounting) {
  RingBuffer<std::string> ring(8);
  for (int v = 0; v < 5; ++v) ASSERT_TRUE(ring.try_push(std::to_string(v)));
  std::string out;
  ASSERT_TRUE(ring.try_pop(out));
  ASSERT_TRUE(ring.try_pop(out));
  for (int v = 5; v < 8; ++v) ASSERT_TRUE(ring.try_push(std::to_string(v)));
  // Peak occupancy was 6 (5 - 2 + 3), never the capacity, and 8 pushes
  // less 2 pops leave 6.
  EXPECT_EQ(ring.high_water(), 6u);
  EXPECT_EQ(ring.size(), 6u);
}

TEST(RingBuffer, CapacityOneDegenerateCase) {
  RingBuffer<int> ring(1);
  EXPECT_TRUE(ring.try_push(7));
  EXPECT_TRUE(ring.full());
  EXPECT_FALSE(ring.try_push(8));
  int out = 0;
  EXPECT_TRUE(ring.try_pop(out));
  EXPECT_EQ(out, 7);
  EXPECT_TRUE(ring.try_push(9));
  EXPECT_TRUE(ring.try_pop(out));
  EXPECT_EQ(out, 9);
  EXPECT_EQ(ring.high_water(), 1u);
}

}  // namespace
