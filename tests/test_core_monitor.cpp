// Unit tests for the FPGA monitoring modules: edge detector, homing FSM,
// axis tracker, and layer monitor.
#include <gtest/gtest.h>

#include "core/monitor.hpp"
#include "sim/scheduler.hpp"

namespace offramps::core {
namespace {

TEST(EdgeDetector, SynchronizesToFpgaClock) {
  sim::Scheduler sched;
  sim::Wire w(sched, "w");
  std::vector<sim::Tick> seen;
  EdgeDetector det(sched, w, [&](sim::Edge, sim::Tick t) {
    seen.push_back(t);
  });
  sched.schedule_at(sim::ns(13), [&] { w.set(true); });   // between clocks
  sched.schedule_at(sim::ns(40), [&] { w.set(false); });  // on a clock edge
  sched.run_all();
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], sim::ns(20));  // sampled at the next 10 ns boundary
  EXPECT_EQ(seen[1], sim::ns(40));
}

struct HomingFixture : ::testing::Test {
  sim::Scheduler sched;
  sim::Wire x{sched, "XM"}, y{sched, "YM"}, z{sched, "ZM"};
  HomingDetector det{sched, x, y, z};

  /// One axis' full homing signature: hit, release, re-hit.
  void home_axis(sim::Wire& w) {
    w.set(true);
    sched.run_until(sched.now() + sim::ms(1));
    w.set(false);
    sched.run_until(sched.now() + sim::ms(1));
    w.set(true);
    sched.run_until(sched.now() + sim::ms(1));
    w.set(false);
    sched.run_until(sched.now() + sim::ms(1));
  }
};

TEST_F(HomingFixture, FiresAfterFullSequence) {
  int fired = 0;
  det.on_homed([&](sim::Tick) { ++fired; });
  EXPECT_FALSE(det.homed());
  home_axis(x);
  EXPECT_FALSE(det.homed());
  home_axis(y);
  EXPECT_FALSE(det.homed());
  home_axis(z);
  EXPECT_TRUE(det.homed());
  EXPECT_EQ(fired, 1);
  EXPECT_GT(det.homed_at(), 0u);
}

TEST_F(HomingFixture, MultipleListenersAllFire) {
  int a = 0, b = 0;
  det.on_homed([&](sim::Tick) { ++a; });
  det.on_homed([&](sim::Tick) { ++b; });
  home_axis(x);
  home_axis(y);
  home_axis(z);
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 1);
}

TEST_F(HomingFixture, OutOfOrderAxisCountsAnomaly) {
  home_axis(y);  // Y before X
  EXPECT_FALSE(det.homed());
  EXPECT_GT(det.out_of_order_events(), 0u);
  // Correct order afterwards still homes.
  home_axis(x);
  home_axis(y);
  home_axis(z);
  EXPECT_TRUE(det.homed());
}

TEST_F(HomingFixture, PostHomingEndstopChatterIsAnomalous) {
  home_axis(x);
  home_axis(y);
  home_axis(z);
  const auto before = det.out_of_order_events();
  x.set(true);  // mid-print endstop hit: not expected
  EXPECT_GT(det.out_of_order_events(), before);
}

TEST_F(HomingFixture, DisabledDetectorIgnoresEverything) {
  det.set_enabled(false);
  home_axis(x);
  home_axis(y);
  home_axis(z);
  EXPECT_FALSE(det.homed());
}

struct TrackerFixture : ::testing::Test {
  sim::Scheduler sched;
  sim::Wire step{sched, "S"}, dir{sched, "D"};
  AxisTracker tracker{sched, step, dir};

  void pulse(int n) {
    for (int i = 0; i < n; ++i) {
      step.set(true);
      step.set(false);
      sched.run_until(sched.now() + sim::us(10));
    }
  }
};

TEST_F(TrackerFixture, DoesNotCountUntilArmed) {
  pulse(5);
  EXPECT_EQ(tracker.count(), 0);
  EXPECT_FALSE(tracker.saw_step());
}

TEST_F(TrackerFixture, CountsSignedByDir) {
  tracker.arm();
  dir.set(true);
  pulse(10);
  dir.set(false);
  pulse(4);
  EXPECT_EQ(tracker.count(), 6);
}

TEST_F(TrackerFixture, FirstStepCallbackFiresOnce) {
  int first = 0;
  tracker.on_first_step([&](sim::Tick) { ++first; });
  tracker.arm();
  dir.set(true);
  sched.run_until(sim::ms(1));  // first step at a nonzero time
  pulse(3);
  EXPECT_EQ(first, 1);
  EXPECT_TRUE(tracker.saw_step());
  EXPECT_GT(tracker.first_step_at(), 0u);
}

TEST_F(TrackerFixture, ArmResetsCount) {
  tracker.arm();
  dir.set(true);
  pulse(5);
  tracker.arm();
  EXPECT_EQ(tracker.count(), 0);
  pulse(2);
  EXPECT_EQ(tracker.count(), 2);
}

TEST_F(TrackerFixture, OnlyTheRisingStepEdgeSchedulesAClockSyncEvent) {
  // The tracker counts rising edges; a falling edge between FPGA clock
  // edges must not schedule an event whose callback would do nothing.
  tracker.arm();
  dir.set(true);
  sched.run_until(sim::ns(13));  // between two 10 ns clock edges
  const std::size_t before_rise = sched.pending();
  step.set(true);
  EXPECT_EQ(sched.pending(), before_rise + 1);
  sched.run_until(sim::ns(37));
  const std::size_t before_fall = sched.pending();
  step.set(false);
  EXPECT_EQ(sched.pending(), before_fall);
  sched.run_all();
  EXPECT_EQ(tracker.count(), 1);
  EXPECT_EQ(tracker.first_step_at(), sim::ns(20));  // the sampled time
}

struct LayerFixture : ::testing::Test {
  sim::Scheduler sched;
  sim::Wire zstep{sched, "Z"};
  LayerMonitor monitor{sched, zstep, sim::ms(500)};

  void z_burst(int steps) {
    for (int i = 0; i < steps; ++i) {
      zstep.set(true);
      zstep.set(false);
      sched.run_until(sched.now() + sim::ms(1));
    }
  }
};

TEST_F(LayerFixture, BurstsSeparatedByQuietAreLayers) {
  std::vector<std::uint64_t> layers;
  monitor.on_layer([&](std::uint64_t n) { layers.push_back(n); });
  sched.run_until(sim::seconds(1));
  z_burst(100);
  sched.run_until(sched.now() + sim::seconds(4));
  z_burst(100);
  sched.run_until(sched.now() + sim::seconds(4));
  z_burst(100);
  EXPECT_EQ(monitor.layers_seen(), 3u);
  EXPECT_EQ(layers, (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST_F(LayerFixture, OnlyTheRisingZStepEdgeSchedulesAClockSyncEvent) {
  std::vector<std::uint64_t> layers;
  monitor.on_layer([&](std::uint64_t n) { layers.push_back(n); });
  sched.run_until(sim::seconds(1) + sim::ns(3));
  const std::size_t before_rise = sched.pending();
  zstep.set(true);
  EXPECT_EQ(sched.pending(), before_rise + 1);
  sched.run_until(sched.now() + sim::ns(24));
  const std::size_t before_fall = sched.pending();
  zstep.set(false);
  EXPECT_EQ(sched.pending(), before_fall);
  sched.run_all();
  EXPECT_EQ(layers, (std::vector<std::uint64_t>{1}));
}

TEST_F(HomingFixture, EndstopEdgesScheduleOnBothEdges) {
  // The homing FSM reads the release (falling) edge too.
  sched.run_until(sim::ns(13));
  const std::size_t before_rise = sched.pending();
  x.set(true);
  EXPECT_EQ(sched.pending(), before_rise + 1);
  sched.run_until(sim::ns(37));
  const std::size_t before_fall = sched.pending();
  x.set(false);
  EXPECT_EQ(sched.pending(), before_fall + 1);
}

TEST_F(LayerFixture, ContinuousSteppingIsOneLayer) {
  sched.run_until(sim::seconds(1));
  z_burst(500);
  EXPECT_EQ(monitor.layers_seen(), 1u);
}

}  // namespace
}  // namespace offramps::core
