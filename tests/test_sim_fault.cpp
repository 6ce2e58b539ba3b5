// Unit tests for the declarative fault-injection engine: stuck-at and
// glitch faults on digital wires, open/short/drift faults on analog
// channels, byte-stream corruptors, scheduler timing jitter, activation
// windows, and the zero-intensity control-cell convention.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "sim/error.hpp"
#include "sim/fault.hpp"
#include "sim/scheduler.hpp"
#include "sim/wire.hpp"

namespace offramps::sim {
namespace {

TEST(FaultKindNames, EveryKindHasExactlyOneFamily) {
  for (int i = 0; i <= static_cast<int>(FaultKind::kTimingJitter); ++i) {
    const auto k = static_cast<FaultKind>(i);
    const int families = int{fault_targets_digital(k)} +
                         int{fault_targets_analog(k)} +
                         int{fault_targets_stream(k)} +
                         int{fault_targets_timing(k)};
    EXPECT_EQ(families, 1) << fault_kind_name(k);
  }
}

TEST(FaultSpec, WindowSemantics) {
  FaultSpec s;
  s.start = ms(10);
  s.stop = ms(20);
  EXPECT_FALSE(s.window_contains(ms(9)));
  EXPECT_TRUE(s.window_contains(ms(10)));
  EXPECT_TRUE(s.window_contains(ms(19)));
  EXPECT_FALSE(s.window_contains(ms(20)));  // half-open
  s.stop = 0;                               // "until the end"
  EXPECT_TRUE(s.window_contains(ms(1'000'000)));
}

TEST(FaultSpec, DescribeNamesKindTargetAndWindow) {
  FaultSpec s{.kind = FaultKind::kStuckLow, .target = "X_STEP",
              .intensity = 1.0, .start = seconds(2), .stop = seconds(4)};
  const std::string d = s.describe();
  EXPECT_NE(d.find("stuck_low"), std::string::npos);
  EXPECT_NE(d.find("X_STEP"), std::string::npos);
  EXPECT_NE(d.find("2"), std::string::npos);
  EXPECT_NE(d.find("4"), std::string::npos);
}

struct DigitalFaultTest : ::testing::Test {
  Scheduler sched;
  Wire wire{sched, "NET"};
  FaultInjector inj{sched};
};

TEST_F(DigitalFaultTest, StuckHighEngagesAndReleasesOnWindow) {
  inj.inject_digital({.kind = FaultKind::kStuckHigh, .target = "NET",
                      .start = ms(1), .stop = ms(3)},
                     wire);
  sched.run_until(ms(2));
  EXPECT_TRUE(wire.level());
  EXPECT_TRUE(wire.fault().has_value());
  // A drive against the fault is masked and counted, not observed.
  wire.set(false);
  EXPECT_TRUE(wire.level());
  EXPECT_EQ(wire.fault_masked_drives(), 1u);
  sched.run_until(ms(4));
  // Released: the net re-synchronizes to the last driven level.
  EXPECT_FALSE(wire.fault().has_value());
  EXPECT_FALSE(wire.level());
  EXPECT_EQ(inj.stats().stuck_engagements, 1u);
}

TEST_F(DigitalFaultTest, StuckLowWithNoStopHoldsToTheEnd) {
  wire.set(true);
  inj.inject_digital({.kind = FaultKind::kStuckLow, .target = "NET",
                      .start = ms(1)},
                     wire);
  sched.run_until(seconds(10));
  EXPECT_FALSE(wire.level());
  EXPECT_TRUE(wire.fault().has_value());
}

TEST_F(DigitalFaultTest, ZeroIntensityIsARecordedNoOp) {
  inj.inject_digital({.kind = FaultKind::kStuckHigh, .target = "NET",
                      .intensity = 0.0, .start = ms(1)},
                     wire);
  sched.run_until(ms(10));
  EXPECT_EQ(inj.armed(), 1u);
  EXPECT_FALSE(wire.level());
  EXPECT_EQ(inj.stats().total(), 0u);
}

TEST_F(DigitalFaultTest, GlitchesArePoissonAndSeedReproducible) {
  // 1000 glitches/s over 100 ms of idle-low wire: expect roughly 100
  // short positive pulses, and the exact count must be seed-stable.
  const FaultSpec spec{.kind = FaultKind::kGlitch, .target = "NET",
                       .intensity = 1000.0, .start = 0, .stop = ms(100),
                       .seed = 42};
  inj.inject_digital(spec, wire);
  sched.run_until(ms(120));
  const auto glitches = inj.stats().glitches;
  EXPECT_GT(glitches, 50u);
  EXPECT_LT(glitches, 200u);
  // Nearly every glitch is an observable rising edge (back-to-back
  // glitches inside one pulse width can merge, so <= not ==).
  EXPECT_GT(wire.rising_count(), 0u);
  EXPECT_LE(wire.rising_count(), glitches);
  EXPECT_FALSE(wire.fault().has_value());  // all released after window

  Scheduler sched2;
  Wire wire2{sched2, "NET"};
  FaultInjector inj2{sched2};
  inj2.inject_digital(spec, wire2);
  sched2.run_until(ms(120));
  EXPECT_EQ(inj2.stats().glitches, glitches);
}

TEST_F(DigitalFaultTest, InjectDigitalRejectsForeignKinds) {
  EXPECT_THROW(
      inj.inject_digital({.kind = FaultKind::kAnalogDrift, .target = "NET"},
                         wire),
      offramps::Error);
  EXPECT_THROW(
      inj.inject_digital({.kind = FaultKind::kUartBitFlip, .target = "NET"},
                         wire),
      offramps::Error);
}

struct AnalogFaultTest : ::testing::Test {
  Scheduler sched;
  AnalogChannel ch{sched, "THERM", 512.0};
  FaultInjector inj{sched};
};

TEST_F(AnalogFaultTest, OpenCircuitRailsToFullScaleThenReleases) {
  inj.inject_analog({.kind = FaultKind::kAnalogOpen, .target = "THERM",
                     .start = ms(1), .stop = ms(3)},
                    ch);
  sched.run_until(ms(2));
  EXPECT_DOUBLE_EQ(ch.value(), 1023.0);
  EXPECT_TRUE(ch.fault_active());
  ch.set(400.0);  // driver keeps updating underneath the fault
  EXPECT_DOUBLE_EQ(ch.value(), 1023.0);
  sched.run_until(ms(4));
  EXPECT_FALSE(ch.fault_active());
  EXPECT_DOUBLE_EQ(ch.value(), 400.0);  // re-publishes the driven value
}

TEST_F(AnalogFaultTest, ShortCircuitReadsZero) {
  inj.inject_analog({.kind = FaultKind::kAnalogShort, .target = "THERM",
                     .start = ms(1)},
                    ch);
  sched.run_until(ms(2));
  EXPECT_DOUBLE_EQ(ch.value(), 0.0);
  EXPECT_EQ(inj.stats().analog_engagements, 1u);
}

TEST_F(AnalogFaultTest, DriftRampsLinearlyAndClamps) {
  // 100 ADC counts per second from t = 0.
  inj.inject_analog({.kind = FaultKind::kAnalogDrift, .target = "THERM",
                     .intensity = 100.0, .start = 0},
                    ch);
  sched.run_until(seconds(1));
  ch.set(512.0);
  EXPECT_NEAR(ch.value(), 612.0, 1.0);
  sched.run_until(seconds(3));
  ch.set(512.0);
  EXPECT_NEAR(ch.value(), 812.0, 1.0);
  sched.run_until(seconds(60));
  ch.set(512.0);
  EXPECT_DOUBLE_EQ(ch.value(), 1023.0);  // clamped at full scale
}

struct StreamFaultTest : ::testing::Test {
  Scheduler sched;
  FaultInjector inj{sched};
  std::vector<std::uint8_t> frame{0xA5, 0x5A, 1, 2, 3, 4, 5, 6, 7, 8};
};

TEST_F(StreamFaultTest, BitFlipAtCertaintyFlipsExactlyOneBitPerByte) {
  auto f = inj.make_stream_fault({.kind = FaultKind::kUartBitFlip,
                                  .target = "uart", .intensity = 1.0});
  ASSERT_TRUE(f);
  auto copy = frame;
  f(copy);
  ASSERT_EQ(copy.size(), frame.size());
  for (std::size_t i = 0; i < frame.size(); ++i) {
    const std::uint8_t diff = copy[i] ^ frame[i];
    EXPECT_NE(diff, 0u);
    EXPECT_EQ(diff & (diff - 1), 0u) << "more than one bit flipped";
  }
  EXPECT_EQ(inj.stats().bytes_flipped, frame.size());
}

TEST_F(StreamFaultTest, DropAndDupChangeLength) {
  auto drop = inj.make_stream_fault({.kind = FaultKind::kUartDropByte,
                                     .target = "uart", .intensity = 1.0});
  auto copy = frame;
  drop(copy);
  EXPECT_TRUE(copy.empty());
  EXPECT_EQ(inj.stats().bytes_dropped, frame.size());

  auto dup = inj.make_stream_fault({.kind = FaultKind::kUartDupByte,
                                    .target = "uart", .intensity = 1.0,
                                    .seed = 7});
  copy = frame;
  dup(copy);
  EXPECT_EQ(copy.size(), frame.size() * 2);
  EXPECT_EQ(inj.stats().bytes_duplicated, frame.size());
}

TEST_F(StreamFaultTest, QuietOutsideWindowAndWhenDisarmed) {
  auto f = inj.make_stream_fault({.kind = FaultKind::kUartBitFlip,
                                  .target = "uart", .intensity = 1.0,
                                  .start = seconds(100)});
  auto copy = frame;
  f(copy);  // now() == 0, window starts at 100 s
  EXPECT_EQ(copy, frame);
  EXPECT_EQ(inj.stats().bytes_flipped, 0u);
  // Zero intensity returns a null corruptor (caller skips installation).
  auto off = inj.make_stream_fault({.kind = FaultKind::kUartBitFlip,
                                    .target = "uart", .intensity = 0.0});
  EXPECT_FALSE(off);
}

TEST(TimingFault, JitterDelaysEventsWithinBoundAndWindow) {
  Scheduler sched;
  FaultInjector inj(sched);
  // Up to 500 us of added latency for the first 10 ms only.
  inj.inject_timing({.kind = FaultKind::kTimingJitter, .target = "scheduler",
                     .intensity = 500.0, .start = 0, .stop = ms(10)});
  std::vector<Tick> fired;
  for (int i = 1; i <= 20; ++i) {
    sched.schedule_at(ms(i), [&fired, &sched] { fired.push_back(sched.now()); });
  }
  sched.run_all();
  ASSERT_EQ(fired.size(), 20u);
  bool any_delayed = false;
  for (int i = 0; i < 20; ++i) {
    const Tick requested = ms(i + 1);
    const Tick actual = fired[static_cast<std::size_t>(i)];
    EXPECT_GE(actual, requested);
    if (requested < ms(10)) {
      EXPECT_LE(actual, requested + us(500));
      any_delayed |= actual != requested;
    } else {
      // Events scheduled after the window closes are exact again.
      EXPECT_EQ(actual, requested);
    }
  }
  EXPECT_TRUE(any_delayed);
  EXPECT_GT(sched.warped_events(), 0u);
  EXPECT_EQ(inj.stats().timing_windows, 1u);
}

TEST(TimingFault, JitterDependsOnlyOnTheRequestedTick) {
  // The same events must fire at the same (jittered) times whether or
  // not unrelated events are scheduled between them: a simulator change
  // that stops scheduling a no-op event must not move any other event.
  const auto fire_times = [](bool with_unrelated) {
    Scheduler sched;
    FaultInjector inj(sched);
    inj.inject_timing({.kind = FaultKind::kTimingJitter,
                       .target = "scheduler",
                       .intensity = 300.0,
                       .seed = 0xFA17});
    std::vector<Tick> fired(20, 0);
    for (std::size_t i = 0; i < fired.size(); ++i) {
      if (with_unrelated) {
        for (int k = 0; k < 3; ++k) {
          sched.schedule_at(us(700) * (i + 1) + us(13) * k + 1, [] {});
        }
      }
      sched.schedule_at(us(700) * (i + 1), [&fired, &sched, i] {
        fired[i] = sched.now();
      });
    }
    sched.run_all();
    return fired;
  };
  const std::vector<Tick> bare = fire_times(false);
  EXPECT_EQ(fire_times(true), bare);
  std::size_t delayed = 0;
  for (std::size_t i = 0; i < bare.size(); ++i) {
    EXPECT_GE(bare[i], us(700) * (i + 1));
    EXPECT_LE(bare[i], us(700) * (i + 1) + us(300));
    delayed += bare[i] != us(700) * (i + 1) ? 1 : 0;
  }
  EXPECT_GT(delayed, 0u);
}

TEST(TimingFault, SameTickEventsShareOneJitterAndKeepFifoOrder) {
  Scheduler sched;
  FaultInjector inj(sched);
  inj.inject_timing({.kind = FaultKind::kTimingJitter,
                     .target = "scheduler",
                     .intensity = 300.0,
                     .seed = 7});
  std::vector<std::pair<int, Tick>> fired;
  for (int i = 0; i < 8; ++i) {
    sched.schedule_at(ms(3), [&fired, &sched, i] {
      fired.emplace_back(i, sched.now());
    });
  }
  sched.run_all();
  ASSERT_EQ(fired.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(fired[static_cast<std::size_t>(i)].first, i);
    EXPECT_EQ(fired[static_cast<std::size_t>(i)].second, fired[0].second);
  }
}

TEST(TimingFault, SecondTimingFaultThrows) {
  Scheduler sched;
  FaultInjector inj(sched);
  inj.inject_timing(
      {.kind = FaultKind::kTimingJitter, .target = {}, .intensity = 10.0});
  EXPECT_THROW(inj.inject_timing({.kind = FaultKind::kTimingJitter,
                                  .target = {},
                                  .intensity = 10.0}),
               offramps::Error);
}

TEST(TimingFault, InjectorDestructionUnhooksTheWarp) {
  Scheduler sched;
  {
    FaultInjector inj(sched);
    inj.inject_timing({.kind = FaultKind::kTimingJitter,
                       .target = {},
                       .intensity = 100.0,
                       .seed = 3});
  }
  // With the injector gone the scheduler must be jitter-free again.
  Tick fired = 0;
  sched.schedule_at(ms(5), [&fired, &sched] { fired = sched.now(); });
  sched.run_all();
  EXPECT_EQ(fired, ms(5));
}

}  // namespace
}  // namespace offramps::sim
