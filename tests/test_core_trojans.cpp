// Unit-level tests for the Trojan control module: arming, triggering,
// activation accounting, dynamic toggling, and controller hygiene.
#include <gtest/gtest.h>

#include "core/board.hpp"
#include "core/trojans.hpp"
#include "sim/error.hpp"
#include "sim/trace.hpp"

namespace offramps::core {
namespace {

struct TrojanFixture : ::testing::Test {
  sim::Scheduler sched;
  Board board{sched, {}, RouteMode::kFpgaMitm};

  /// Drives the homing signature on the RAMPS side so homing-triggered
  /// Trojans arm.
  void home() {
    for (const auto a : {sim::Axis::kX, sim::Axis::kY, sim::Axis::kZ}) {
      auto& stop = board.ramps_side().min_endstop(a);
      for (int hit = 0; hit < 2; ++hit) {
        stop.set(true);
        sched.run_until(sched.now() + sim::ms(1));
        stop.set(false);
        sched.run_until(sched.now() + sim::ms(1));
      }
    }
    sched.run_until(sched.now() + sim::ms(1));
  }

  /// Pulses a firmware-side step line at a given cadence.
  void pulses(sim::Axis axis, int n, sim::Tick spacing = sim::us(100)) {
    for (int i = 0; i < n; ++i) {
      board.arduino_side().step(axis).pulse(sim::us(1));
      sched.run_until(sched.now() + spacing);
    }
  }
};

TEST_F(TrojanFixture, ArmTwiceThrows) {
  TrojanSuiteConfig cfg;
  cfg.t2 = T2Config{};
  board.trojans().arm(cfg);
  EXPECT_THROW(board.trojans().arm(cfg), offramps::Error);
}

TEST_F(TrojanFixture, EmptySuiteArmsNothing) {
  EXPECT_TRUE(board.trojans().trojans().empty());
  EXPECT_EQ(board.trojans().find(TrojanId::kT2), nullptr);
}

TEST_F(TrojanFixture, TrojansStayDormantUntilHoming) {
  TrojanSuiteConfig cfg;
  cfg.t2 = T2Config{.keep_ratio = 0.5};
  board.trojans().arm(cfg);
  Trojan* t2 = board.trojans().find(TrojanId::kT2);
  ASSERT_NE(t2, nullptr);
  EXPECT_FALSE(t2->enabled());

  sim::TraceRecorder out(board.ramps_side().step(sim::Axis::kE), false);
  pulses(sim::Axis::kE, 20);
  EXPECT_EQ(out.rising_edges(), 20u);  // pre-homing: everything passes

  home();
  EXPECT_TRUE(t2->enabled());
  pulses(sim::Axis::kE, 20);
  EXPECT_EQ(out.rising_edges(), 30u);  // post-homing: half masked
}

TEST_F(TrojanFixture, HomingDelayDefersActivation) {
  TrojanSuiteConfig cfg;
  cfg.t6 = T6Config{.hotend = true, .bed = false,
                    .delay_after_homing_s = 5.0};
  board.trojans().arm(cfg);
  board.arduino_side().wire(sim::Pin::kHotendHeat).set(true);
  home();
  sched.run_until(sched.now() + sim::seconds(2));
  EXPECT_TRUE(board.ramps_side().wire(sim::Pin::kHotendHeat).level());
  sched.run_until(sched.now() + sim::seconds(4));
  EXPECT_FALSE(board.ramps_side().wire(sim::Pin::kHotendHeat).level());
}

TEST_F(TrojanFixture, ActivationCountersTrack) {
  TrojanSuiteConfig cfg;
  cfg.t2 = T2Config{.keep_ratio = 0.5};
  board.trojans().arm(cfg);
  home();
  pulses(sim::Axis::kE, 40);
  Trojan* t2 = board.trojans().find(TrojanId::kT2);
  ASSERT_NE(t2, nullptr);
  EXPECT_EQ(t2->activations(), 20u);  // one per dropped pulse
  EXPECT_EQ(board.fpga().path(sim::Pin::kEStep).dropped_pulses(), 20u);
}

TEST_F(TrojanFixture, DisarmAllRestoresPassthrough) {
  TrojanSuiteConfig cfg;
  cfg.t2 = T2Config{.keep_ratio = 0.5};
  cfg.t6 = T6Config{.hotend = true, .bed = true,
                    .delay_after_homing_s = 0.0};
  board.trojans().arm(cfg);
  home();
  for (const auto& trojan : board.trojans().trojans()) {
    trojan->set_enabled(false);
  }
  sim::TraceRecorder out(board.ramps_side().step(sim::Axis::kE), false);
  pulses(sim::Axis::kE, 10);
  EXPECT_EQ(out.rising_edges(), 10u);
  EXPECT_FALSE(board.fpga()
                   .path(sim::Pin::kHotendHeat)
                   .forced()
                   .has_value());
}

TEST_F(TrojanFixture, T1BurstsInjectOnSchedule) {
  TrojanSuiteConfig cfg;
  cfg.t1 = T1Config{.period = sim::seconds(2),
                    .pulses_per_burst = 25,
                    .alternate_axes = true};
  board.trojans().arm(cfg);
  home();
  sim::TraceRecorder x(board.ramps_side().step(sim::Axis::kX), false);
  sim::TraceRecorder y(board.ramps_side().step(sim::Axis::kY), false);
  sched.run_until(sched.now() + sim::seconds(7));  // 3 bursts: X, Y, X
  EXPECT_EQ(x.rising_edges(), 50u);
  EXPECT_EQ(y.rising_edges(), 25u);
  EXPECT_EQ(board.trojans().find(TrojanId::kT1)->activations(), 3u);
}

TEST_F(TrojanFixture, T8CyclesDriverEnables) {
  TrojanSuiteConfig cfg;
  cfg.t8 = T8Config{.axes = {true, false, false, false},
                    .period_s = 1.0,
                    .off_duration_s = 0.2,
                    .delay_after_homing_s = 0.0};
  board.trojans().arm(cfg);
  // Firmware holds the driver enabled.
  board.arduino_side().enable(sim::Axis::kX).set(false);
  home();
  auto& en = board.ramps_side().enable(sim::Axis::kX);
  sched.run_until(sched.now() + sim::ms(1100));
  EXPECT_TRUE(en.level());  // mid-deactivation: forced high
  sched.run_until(sched.now() + sim::ms(300));
  EXPECT_FALSE(en.level());  // released back to the firmware's level
  sched.run_until(sched.now() + sim::seconds(4));
  EXPECT_GE(board.trojans().find(TrojanId::kT8)->activations(), 4u);
}

TEST_F(TrojanFixture, EnableDisableIsIdempotent) {
  TrojanSuiteConfig cfg;
  cfg.t7 = T7Config{.hotend = true, .delay_after_homing_s = 0.0};
  board.trojans().arm(cfg);
  Trojan* t7 = board.trojans().find(TrojanId::kT7);
  ASSERT_NE(t7, nullptr);
  home();
  EXPECT_TRUE(t7->enabled());
  t7->set_enabled(true);  // no-op
  EXPECT_EQ(t7->activations(), 1u);
  t7->set_enabled(false);
  t7->set_enabled(false);  // no-op
  EXPECT_FALSE(board.fpga()
                   .path(sim::Pin::kHotendHeat)
                   .forced()
                   .has_value());
}

}  // namespace
}  // namespace offramps::core
