// Ordering-invariant property tests for `sim::Scheduler`.
//
// The scheduler's hard contract: events drain in exactly (time, seq)
// order, FIFO among same-tick events, no matter how insertions
// interleave with drains or how far apart their times are.  Every
// fleet/campaign/checkpoint digest depends on this, so the tests here
// compare the real `sim::Scheduler` against a reference binary-heap
// scheduler (std::function payloads, no fast paths) running the same
// schedule script.  The suite name predates the scheduler's sorted
// queue (and its binary heap before that); it is kept so the test ids
// stay stable.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace {

using offramps::sim::Scheduler;
using offramps::sim::Tick;

/// 2^32 ticks (~4.3 simulated s): supervisor deadlines and end-of-print
/// watchdogs are scheduled this far out and beyond.
constexpr Tick kFarFuture = Tick{1} << 32;

/// The simplest scheduler with the contract: a binary heap of
/// std::function events popped in (time, seq) order.  The oracle.
class RefHeapScheduler {
 public:
  using Callback = std::function<void()>;

  void schedule_at(Tick t, Callback cb) {
    heap_.push_back(Event{t, next_seq_++, std::move(cb)});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }
  void schedule_in(Tick dt, Callback cb) {
    schedule_at(now_ + dt, std::move(cb));
  }
  [[nodiscard]] Tick now() const { return now_; }
  [[nodiscard]] bool idle() const { return heap_.empty(); }
  [[nodiscard]] std::size_t pending() const { return heap_.size(); }

  bool step() {
    if (heap_.empty()) return false;
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Event ev = std::move(heap_.back());
    heap_.pop_back();
    now_ = ev.time;
    ev.cb();
    return true;
  }

  bool step_if_before(Tick t) {
    return !heap_.empty() && heap_.front().time <= t && step();
  }

  void run_all() {
    while (step()) {
    }
  }

 private:
  struct Event {
    Tick time = 0;
    std::uint64_t seq = 0;
    Callback cb;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };
  std::vector<Event> heap_;
  Tick now_ = 0;
  std::uint64_t next_seq_ = 0;
};

/// Execution log entry: which event ran, at what simulated time.
struct LogEntry {
  std::uint64_t id;
  Tick time;
  bool operator==(const LogEntry&) const = default;
};

/// Time distributions covering the simulator's event spacings.
Tick draw_time(std::mt19937_64& rng, int dist) {
  switch (dist) {
    case 0:  // dense: stepper-burst spacing, heavy same-tick collisions
      return rng() % 64;
    case 1:  // sparse: thermal-tick spacing
      return rng() % 10'000'000;
    case 2:  // clustered: few distinct ticks, long FIFO runs
      return (rng() % 8) * 1000;
    default:  // far future: supervisor-deadline distances
      return kFarFuture + rng() % 1'000'000;
  }
}

/// Runs `script` on both schedulers and returns (scheduler log,
/// reference log).  `script(sched, log)` schedules and drains.
template <typename Script>
std::pair<std::vector<LogEntry>, std::vector<LogEntry>> run_both(
    Script script) {
  std::vector<LogEntry> sched_log;
  std::vector<LogEntry> ref_log;
  Scheduler sched;
  script(sched, sched_log);
  RefHeapScheduler ref;
  script(ref, ref_log);
  return {sched_log, ref_log};
}

/// Runs the same generative schedule script on both schedulers and
/// returns (scheduler log, reference log).  Initial events may spawn
/// children by a deterministic rule keyed on the event id, so insertion
/// interleaves with draining on both sides identically as long as the
/// drain order matches - any divergence shows up in the logs.
std::pair<std::vector<LogEntry>, std::vector<LogEntry>> run_script(
    std::uint64_t seed, std::size_t n_initial, bool spawn_children) {
  return run_both([&](auto& sched, std::vector<LogEntry>& log) {
    std::mt19937_64 rng(seed);
    std::uint64_t next_id = 0;
    // Children reuse the parent's rng stream deterministically: a fresh
    // engine seeded from the child id.
    std::function<void(std::uint64_t, int)> schedule_event =
        [&](std::uint64_t id, int depth) {
          std::mt19937_64 crng(seed ^ (id * 0x9e3779b97f4a7c15ULL));
          const Tick delta = draw_time(crng, static_cast<int>(id % 4));
          sched.schedule_in(delta, [&, id, depth]() {
            log.push_back(LogEntry{id, sched.now()});
            if (spawn_children && depth < 3 && id % 3 == 0) {
              for (int c = 0; c < 2; ++c) {
                schedule_event(next_id++, depth + 1);
              }
            }
          });
        };
    for (std::size_t i = 0; i < n_initial; ++i) {
      schedule_event(next_id++, 0);
    }
    (void)rng;
    sched.run_all();
  });
}

TEST(SchedulerWheelProperty, RandomizedInsertionsDrainLikeReferenceHeap) {
  for (std::uint64_t seed : {1ULL, 7ULL, 42ULL, 1234567ULL, 0xdeadbeefULL}) {
    auto [sched_log, ref_log] = run_script(seed, 500, /*spawn_children=*/false);
    ASSERT_EQ(sched_log.size(), 500u) << "seed " << seed;
    EXPECT_EQ(sched_log, ref_log) << "seed " << seed;
  }
}

TEST(SchedulerWheelProperty, InterleavedSpawningDrainsLikeReferenceHeap) {
  for (std::uint64_t seed : {3ULL, 99ULL, 0xabcdefULL}) {
    auto [sched_log, ref_log] = run_script(seed, 200, /*spawn_children=*/true);
    ASSERT_GT(sched_log.size(), 200u) << "seed " << seed;
    EXPECT_EQ(sched_log, ref_log) << "seed " << seed;
  }
}

/// Schedules event `id` `delta` ticks out.  Every third event carries a
/// std::string (not trivially copyable, so its callback is heap-stored);
/// the rest are inline.  The event logs its id, checking the string.
template <typename Sched>
void schedule_mixed(Sched& sched, std::vector<LogEntry>& log,
                    std::uint64_t id, Tick delta) {
  if (id % 3 == 0) {
    std::string tag = "event-" + std::to_string(id);
    sched.schedule_in(delta, [&sched, &log, id, tag = std::move(tag)] {
      const bool intact = tag == "event-" + std::to_string(id);
      log.push_back(LogEntry{intact ? id : ~id, sched.now()});
    });
  } else {
    sched.schedule_in(delta, [&sched, &log, id] {
      log.push_back(LogEntry{id, sched.now()});
    });
  }
}

TEST(SchedulerWheelProperty, HeapAndInlinePayloadsDrainLikeReferenceHeap) {
  for (std::uint64_t seed : {5ULL, 77ULL, 0xfeedULL}) {
    auto [sched_log, ref_log] = run_both([seed](auto& sched, auto& log) {
      std::mt19937_64 rng(seed);
      for (std::uint64_t id = 0; id < 600; ++id) {
        schedule_mixed(sched, log, id,
                       draw_time(rng, static_cast<int>(id % 4)));
      }
      sched.run_all();
    });
    ASSERT_EQ(sched_log.size(), 600u) << "seed " << seed;
    EXPECT_EQ(sched_log, ref_log) << "seed " << seed;
    for (const LogEntry& e : sched_log) ASSERT_LT(e.id, 600u);
  }
}

TEST(SchedulerWheelProperty, ThousandEventBurstFromOneCallbackDrainsInOrder) {
  // One callback schedules 1,000 events at once - some at its own tick -
  // so the callback storage grows while that callback is running.
  auto [sched_log, ref_log] = run_both([](auto& sched, auto& log) {
    std::mt19937_64 rng(11);
    for (std::uint64_t id = 0; id < 8; ++id) {
      schedule_mixed(sched, log, id, draw_time(rng, 0));
    }
    sched.schedule_at(40, [&sched, &log] {
      std::mt19937_64 burst(12);
      for (std::uint64_t id = 100; id < 1100; ++id) {
        schedule_mixed(sched, log, id,
                       draw_time(burst, static_cast<int>(id % 3)));
      }
      log.push_back(LogEntry{99, sched.now()});
    });
    sched.run_all();
  });
  ASSERT_EQ(sched_log.size(), 1009u);
  EXPECT_EQ(sched_log, ref_log);
}

TEST(SchedulerWheelProperty, DrainAndRefillCyclesReuseSlotsInOrder) {
  // Each round refills a drained queue, so every event after the first
  // round lands in a reused callback slot.
  auto [sched_log, ref_log] = run_both([](auto& sched, auto& log) {
    std::mt19937_64 rng(21);
    std::uint64_t id = 0;
    for (int round = 0; round < 30; ++round) {
      const std::size_t n = 1 + rng() % 64;
      for (std::size_t i = 0; i < n; ++i, ++id) {
        schedule_mixed(sched, log, id,
                       draw_time(rng, static_cast<int>(id % 3)));
      }
      sched.run_all();
      log.push_back(LogEntry{~std::uint64_t{0}, sched.now()});
    }
  });
  ASSERT_GT(sched_log.size(), 60u);
  EXPECT_EQ(sched_log, ref_log);
}

TEST(SchedulerWheelProperty, PrintShapedQueueDrainsLikeReferenceHeap) {
  // A print's queue: 20 periodic far timers, each firing a chain of pin
  // edges whose callbacks schedule 1-3 children 0-13 ticks out.  Between
  // step_if_before slices, which the next event refuses, the loop files
  // a stretch of 48 keys, each earlier than the last, so each is filed
  // deep in the sorted queue, past the timers and chains due before it.
  // Each refusal logs pending() as well.
  constexpr std::uint64_t kRefusal = std::uint64_t{1} << 63;
  auto [sched_log, ref_log] = run_both([](auto& sched, auto& log) {
    std::mt19937_64 rng(31);
    std::uint64_t next_id = 1000;
    // A chain edge of depth d: its first child continues the chain at
    // d - 1, the others are leaves.
    std::function<void(std::uint64_t, int)> edge = [&](std::uint64_t id,
                                                        int depth) {
      log.push_back(LogEntry{id, sched.now()});
      if (depth == 0) return;
      const int children = 1 + static_cast<int>(rng() % 3);
      for (int c = 0; c < children; ++c) {
        const std::uint64_t child = next_id++;
        const int d = c == 0 ? depth - 1 : 0;
        sched.schedule_in(rng() % 14, [&edge, child, d] { edge(child, d); });
      }
    };
    constexpr Tick kHorizon = 3'000'000;
    std::function<void(std::uint64_t, Tick)> timer = [&](std::uint64_t id,
                                                         Tick period) {
      edge(id, 4);
      if (sched.now() + period < kHorizon) {
        sched.schedule_in(period, [&timer, id, period] { timer(id, period); });
      }
    };
    for (std::uint64_t id = 0; id < 20; ++id) {
      const Tick period = 40'000 + 7'919 * id;
      sched.schedule_in(period, [&timer, id, period] { timer(id, period); });
    }
    constexpr Tick kStretchEnd = 1'500'000;
    std::uint64_t stretch = 0;
    Tick limit = 0;
    while (!sched.idle()) {
      if (sched.step_if_before(limit)) continue;
      log.push_back(LogEntry{kRefusal | sched.pending(), sched.now()});
      if (stretch < 48) {
        const std::uint64_t id = 500 + stretch;
        sched.schedule_at(kStretchEnd - 997 * stretch, [&sched, &log, id] {
          log.push_back(LogEntry{id, sched.now()});
        });
        ++stretch;
      }
      limit += 5'003;
    }
  });
  EXPECT_EQ(sched_log, ref_log);
  std::size_t deepest = 0;
  for (const LogEntry& e : sched_log) {
    if ((e.id & kRefusal) != 0) {
      deepest = std::max<std::size_t>(deepest, e.id & ~kRefusal);
    }
  }
  EXPECT_GE(deepest, 64u);  // far deeper than a clean print's ~24
  EXPECT_GT(sched_log.size(), 5'000u);
}

TEST(SchedulerWheelProperty, SameTickEventsRunInInsertionOrder) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    s.schedule_at(5000, [&order, i]() { order.push_back(i); });
  }
  s.run_all();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(SchedulerWheelProperty, SameTickScheduledDuringDrainRunsThisTick) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(10, [&]() {
    order.push_back(0);
    // Scheduled while tick 10 is mid-drain: must still run at tick 10,
    // after every event inserted before it.
    s.schedule_at(10, [&]() { order.push_back(2); });
  });
  s.schedule_at(10, [&]() { order.push_back(1); });
  s.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(s.now(), 10u);
}

TEST(SchedulerWheelProperty, StepIfBeforeBoundaryIsInclusive) {
  Scheduler s;
  bool ran = false;
  s.schedule_at(100, [&]() { ran = true; });
  EXPECT_FALSE(s.step_if_before(99));
  EXPECT_EQ(s.now(), 0u);         // refusal leaves time untouched
  EXPECT_EQ(s.pending(), 1u);     // and the event pending
  EXPECT_TRUE(s.step_if_before(100));  // boundary is inclusive
  EXPECT_TRUE(ran);
  EXPECT_EQ(s.now(), 100u);
}

TEST(SchedulerWheelProperty, ScheduleEarlierAfterRefusedStepStillOrdersFirst) {
  // A refused step_if_before() has already looked at the earliest
  // event; scheduling an even earlier one afterwards must still drain
  // in (time, seq) order.
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(1000, [&]() { order.push_back(1); });
  EXPECT_FALSE(s.step_if_before(500));
  s.schedule_at(600, [&]() { order.push_back(0); });
  s.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(SchedulerWheelProperty, StopRequestedMidDrainPreservesRemainder) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.schedule_at(static_cast<Tick>(i) * 10, [&, i]() {
      order.push_back(i);
      if (i == 4) s.request_stop();
    });
  }
  s.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(s.now(), Tick{40});
  EXPECT_EQ(s.executed(), 5u);
  EXPECT_EQ(s.pending(), 5u);  // the events at 50..90 stay queued
}

TEST(SchedulerWheelProperty, FarFutureEventsSpillToOverflowAndStillOrder) {
  Scheduler s;
  std::vector<int> order;
  // A near event first, then ones past 2^32 ticks, inserted out of order.
  s.schedule_at(50, [&]() { order.push_back(0); });
  s.schedule_at(kFarFuture + 500, [&]() { order.push_back(2); });
  s.schedule_at(2 * kFarFuture + 7, [&]() { order.push_back(3); });
  s.schedule_at(kFarFuture - 1, [&]() { order.push_back(1); });
  s.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(s.now(), 2 * kFarFuture + 7);
}

TEST(SchedulerWheelProperty, SlotResidueCollisionsDrainInTimeOrder) {
  // Times congruent mod 256 and mod 65536: bucketed queues (the old
  // timer wheel) alias these, so none may run a later one early.
  Scheduler s;
  std::vector<Tick> times;
  for (Tick base : {Tick{5}, Tick{5 + 256}, Tick{5 + 512},
                    Tick{5 + 65536}, Tick{5 + 131072}}) {
    s.schedule_at(base, [&times, &s]() { times.push_back(s.now()); });
  }
  s.run_all();
  ASSERT_EQ(times.size(), 5u);
  EXPECT_TRUE(std::is_sorted(times.begin(), times.end()));
  EXPECT_EQ(times.front(), 5u);
  EXPECT_EQ(times.back(), 5u + 131072u);
}

TEST(SchedulerWheelProperty, LongRunningChainsCrossLevelBoundaries) {
  // A self-rescheduling chain whose period sweeps from 1 tick to ~2 ms
  // must never move time backwards.
  Scheduler s;
  std::uint64_t hops = 0;
  Tick last = 0;
  std::function<void(Tick)> hop = [&](Tick period) {
    EXPECT_GE(s.now(), last);
    last = s.now();
    ++hops;
    if (hops < 200) {
      const Tick next_period = (period * 3) % 2'000'000 + 1;
      s.schedule_in(next_period, [&hop, next_period]() { hop(next_period); });
    }
  };
  s.schedule_in(1, [&hop]() { hop(1); });
  s.run_all();
  EXPECT_EQ(hops, 200u);
}

}  // namespace
