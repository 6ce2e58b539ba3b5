// Unit tests for the discrete-event scheduler.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/error.hpp"
#include "sim/scheduler.hpp"

namespace offramps::sim {
namespace {

TEST(Scheduler, StartsAtTimeZeroAndIdle) {
  Scheduler s;
  EXPECT_EQ(s.now(), 0u);
  EXPECT_TRUE(s.idle());
  EXPECT_EQ(s.pending(), 0u);
  EXPECT_FALSE(s.step());
}

TEST(Scheduler, RunsEventsInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(30, [&] { order.push_back(3); });
  s.schedule_at(10, [&] { order.push_back(1); });
  s.schedule_at(20, [&] { order.push_back(2); });
  s.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 30u);
}

TEST(Scheduler, SimultaneousEventsRunFifo) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.schedule_at(100, [&order, i] { order.push_back(i); });
  }
  s.run_all();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Scheduler, NowIsEventTimeInsideCallback) {
  Scheduler s;
  Tick seen = 0;
  s.schedule_at(42, [&] { seen = s.now(); });
  s.run_all();
  EXPECT_EQ(seen, 42u);
}

TEST(Scheduler, ScheduleInIsRelative) {
  Scheduler s;
  Tick seen = 0;
  s.schedule_at(100, [&] {
    s.schedule_in(50, [&] { seen = s.now(); });
  });
  s.run_all();
  EXPECT_EQ(seen, 150u);
}

TEST(Scheduler, SchedulingInThePastThrows) {
  Scheduler s;
  s.schedule_at(100, [] {});
  s.run_all();
  EXPECT_THROW(s.schedule_at(50, [] {}), Error);
}

TEST(Scheduler, CallbacksMayScheduleMoreEvents) {
  Scheduler s;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 100) s.schedule_in(10, chain);
  };
  s.schedule_at(0, chain);
  s.run_all();
  EXPECT_EQ(count, 100);
  EXPECT_EQ(s.now(), 990u);
}

TEST(Scheduler, RunUntilAdvancesTimeEvenWithoutEvents) {
  Scheduler s;
  s.run_until(12345);
  EXPECT_EQ(s.now(), 12345u);
}

TEST(Scheduler, RunUntilStopsAtBoundaryInclusive) {
  Scheduler s;
  int ran = 0;
  s.schedule_at(100, [&] { ++ran; });
  s.schedule_at(101, [&] { ++ran; });
  s.run_until(100);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(s.now(), 100u);
  s.run_until(200);
  EXPECT_EQ(ran, 2);
}

TEST(Scheduler, RequestStopBreaksRunLoop) {
  Scheduler s;
  int ran = 0;
  s.schedule_at(10, [&] {
    ++ran;
    s.request_stop();
  });
  s.schedule_at(20, [&] { ++ran; });
  s.run_all();
  EXPECT_EQ(ran, 1);
  EXPECT_TRUE(s.stop_requested());
  EXPECT_EQ(s.now(), Tick{10});
  EXPECT_EQ(s.pending(), 1u);  // the event at 20 stays queued
}

TEST(Scheduler, RunAllEventLimitThrows) {
  Scheduler s;
  std::function<void()> forever = [&] { s.schedule_in(1, forever); };
  s.schedule_at(0, forever);
  EXPECT_THROW(s.run_all(1000), Error);
}

TEST(Scheduler, ExecutedCounterAccumulates) {
  Scheduler s;
  for (int i = 0; i < 7; ++i) s.schedule_at(static_cast<Tick>(i), [] {});
  s.run_all();
  EXPECT_EQ(s.executed(), 7u);
}

TEST(Scheduler, StepIfBeforeRespectsDeadline) {
  Scheduler s;
  int ran = 0;
  s.schedule_at(10, [&] { ++ran; });
  s.schedule_at(20, [&] { ++ran; });
  EXPECT_FALSE(s.step_if_before(9));   // earliest event is later
  EXPECT_EQ(ran, 0);
  EXPECT_TRUE(s.step_if_before(10));   // boundary is inclusive
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(s.now(), 10u);
  EXPECT_FALSE(s.step_if_before(19));
  EXPECT_TRUE(s.step_if_before(20));
  EXPECT_EQ(ran, 2);
  EXPECT_FALSE(s.step_if_before(1000));  // idle
}

TEST(Scheduler, StepIfBeforeDoesNotAdvanceTimeOnRefusal) {
  Scheduler s;
  s.schedule_at(50, [] {});
  EXPECT_FALSE(s.step_if_before(40));
  EXPECT_EQ(s.now(), 0u);       // refusal leaves time untouched...
  EXPECT_EQ(s.pending(), 1u);   // ...and the event queued
}

TEST(Scheduler, CallbackSchedulingDuringStepIsSafe) {
  // A callback that schedules more events mutates the queue while its own
  // event is executing; the event must have fully left the container.
  Scheduler s;
  std::vector<Tick> fired;
  s.schedule_at(1, [&] {
    fired.push_back(s.now());
    for (Tick t = 2; t <= 64; ++t) {
      s.schedule_at(t, [&] { fired.push_back(s.now()); });
    }
  });
  s.run_until(100);
  ASSERT_EQ(fired.size(), 64u);
  for (std::size_t i = 0; i < fired.size(); ++i) {
    EXPECT_EQ(fired[i], i + 1);
  }
  EXPECT_EQ(s.now(), 100u);
}

TEST(Scheduler, HeavyInterleavedTrafficStaysOrdered) {
  // Stress the queue's ordering: interleaved pushes and pops with
  // colliding timestamps must still come out in (time, seq) order.
  Scheduler s;
  std::vector<std::pair<Tick, int>> fired;
  int n = 0;
  for (int round = 0; round < 50; ++round) {
    for (const Tick t : {Tick{300}, Tick{100}, Tick{200}, Tick{100}}) {
      s.schedule_at(t, [&fired, &s, id = n++] {
        fired.emplace_back(s.now(), id);
      });
    }
  }
  s.run_all();
  ASSERT_EQ(fired.size(), 200u);
  for (std::size_t i = 1; i < fired.size(); ++i) {
    EXPECT_LE(fired[i - 1].first, fired[i].first);
    if (fired[i - 1].first == fired[i].first) {
      // FIFO among simultaneous events == ascending insertion id.
      EXPECT_LT(fired[i - 1].second, fired[i].second);
    }
  }
}

TEST(Scheduler, NonTrivialCallbacksFallBackToHeapStorage) {
  // Callables too big (or not trivially copyable) for SmallFn's inline
  // buffer must still work through the heap fallback.
  Scheduler s;
  std::string log;
  const std::string big(256, 'x');
  s.schedule_at(5, [&log, big, copy = big] {
    log = "big:" + std::to_string(big.size() + copy.size());
  });
  s.run_all();
  EXPECT_EQ(log, "big:512");
}

TEST(Scheduler, HeapStoredCallbackIsDestroyedOnceAfterItRuns) {
  // A lambda holding a shared_ptr is not trivially copyable, so SmallFn
  // keeps it in a heap cell; the use count sees every copy and release.
  auto token = std::make_shared<int>(0);
  {
    Scheduler s;
    s.schedule_at(5, [token] { ++*token; });
    EXPECT_EQ(token.use_count(), 2);
    s.run_all();
    EXPECT_EQ(*token, 1);
    EXPECT_EQ(token.use_count(), 1);  // released right after it ran
    // Reusing the freed callback slot must not release it again.
    s.schedule_at(6, [] {});
    s.run_all();
    EXPECT_EQ(token.use_count(), 1);
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(Scheduler, PendingHeapStoredCallbackIsDestroyedOnceWithTheScheduler) {
  auto token = std::make_shared<int>(0);
  {
    Scheduler s;
    s.schedule_at(5, [token] { ++*token; });
    s.schedule_at(7, [token] { ++*token; });
    s.run_until(5);
    EXPECT_EQ(*token, 1);
    EXPECT_EQ(token.use_count(), 2);  // only the pending one holds it
  }
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_EQ(*token, 1);  // the pending one never ran
}

TEST(TimeHelpers, ConversionsAreExact) {
  EXPECT_EQ(ns(7), 7u);
  EXPECT_EQ(us(3), 3'000u);
  EXPECT_EQ(ms(2), 2'000'000u);
  EXPECT_EQ(seconds(1), kTicksPerSecond);
  EXPECT_DOUBLE_EQ(to_seconds(kTicksPerSecond), 1.0);
  EXPECT_EQ(from_seconds(0.5), kTicksPerSecond / 2);
}

TEST(TimeHelpers, FpgaClockAlignment) {
  EXPECT_EQ(align_to_fpga_clock(0), 0u);
  EXPECT_EQ(align_to_fpga_clock(10), 10u);
  EXPECT_EQ(align_to_fpga_clock(11), 20u);
  EXPECT_EQ(align_to_fpga_clock(19), 20u);
  EXPECT_EQ(kFpgaClockTicks, 10u);  // 100 MHz on the 1 ns grid
}

}  // namespace
}  // namespace offramps::sim
