// Tests for the Pulse Generation Module.
#include <gtest/gtest.h>

#include "core/pulse_generator.hpp"
#include "sim/error.hpp"
#include "sim/trace.hpp"

namespace offramps::core {
namespace {

struct PulseGenFixture : ::testing::Test {
  sim::Scheduler sched;
  sim::Wire in{sched, "in"};
  sim::Wire out{sched, "out"};
  SignalPath path{sched, in, out, sim::ns(10)};
  PulseGenerator gen{sched, path};

  void SetUp() override { path.set_active(true); }
};

TEST_F(PulseGenFixture, EmitsExactCount) {
  sim::TraceRecorder trace(out, false);
  gen.burst({.count = 37, .period = sim::us(50), .width = sim::us(1)});
  sched.run_all();
  EXPECT_EQ(trace.rising_edges(), 37u);
  EXPECT_EQ(gen.pulses_emitted(), 37u);
}

TEST_F(PulseGenFixture, RespectsFrequencyAndWidth) {
  sim::TraceRecorder trace(out, true);
  gen.burst({.count = 10, .period = sim::us(100), .width = sim::us(2)});
  sched.run_all();
  EXPECT_EQ(trace.min_period(), sim::us(100));
  EXPECT_EQ(trace.min_high_pulse(), sim::us(2));
}

TEST_F(PulseGenFixture, PulsesAlignToFabricClock) {
  std::vector<sim::Tick> rises;
  out.on_rising([&](sim::Tick t) { rises.push_back(t); });
  sched.run_until(sim::ns(7));  // deliberately off-grid start time
  gen.burst({.count = 3, .period = sim::us(50), .width = sim::us(1)});
  sched.run_all();
  ASSERT_EQ(rises.size(), 3u);
  for (const auto t : rises) {
    // Injection time is clock-aligned; the wire rises within the same
    // event (the output OR updates immediately).
    EXPECT_EQ(t % sim::kFpgaClockTicks, 0u) << t;
  }
}

TEST_F(PulseGenFixture, MergesWithPassthroughTraffic) {
  sim::TraceRecorder trace(out, false);
  // Original pulses every 200 us; injection every 190 us offset.
  for (int i = 0; i < 10; ++i) {
    sched.schedule_at(sim::us(static_cast<std::uint64_t>(200 * i + 100)),
                      [this] { in.pulse(sim::us(1)); });
  }
  gen.burst({.count = 10, .period = sim::us(190), .width = sim::us(1)});
  sched.run_all();
  EXPECT_EQ(trace.rising_edges(), 20u);
}

TEST_F(PulseGenFixture, InvalidTrainsThrow) {
  EXPECT_THROW(gen.burst({.count = 1, .period = sim::us(1),
                          .width = sim::us(1)}),
               offramps::Error);
  EXPECT_THROW(gen.burst({.count = 1, .period = sim::us(50), .width = 0}),
               offramps::Error);
}

}  // namespace
}  // namespace offramps::core
