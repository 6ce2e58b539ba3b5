// svc::Supervisor: deterministic backoff, the retry/quarantine ladder,
// and the sim-clocked stall watchdog.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "sim/error.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"
#include "svc/supervisor.hpp"

namespace {

using offramps::Error;
using offramps::svc::AttemptContext;
using offramps::svc::backoff_delay_ms;
using offramps::svc::GuardOutcome;
using offramps::svc::kBackoffCapMs;
using offramps::svc::rig_status_name;
using offramps::svc::RigStatus;
using offramps::svc::StallWatchdog;
using offramps::svc::Supervisor;
using offramps::svc::SupervisorOptions;

TEST(Backoff, ZeroBaseDisablesSleeping) {
  SupervisorOptions opt;
  opt.backoff_base_ms = 0;
  EXPECT_EQ(backoff_delay_ms(opt, 0, 0), 0u);
  EXPECT_EQ(backoff_delay_ms(opt, 7, 3), 0u);
}

TEST(Backoff, DeterministicAndJittered) {
  SupervisorOptions opt;
  opt.backoff_base_ms = 300;  // 300, 600, 1200, then the 2000 ms cap
  for (std::uint64_t key = 0; key < 16; ++key) {
    for (std::uint32_t attempt = 0; attempt < 5; ++attempt) {
      const std::uint64_t a = backoff_delay_ms(opt, key, attempt);
      const std::uint64_t b = backoff_delay_ms(opt, key, attempt);
      EXPECT_EQ(a, b) << "pure function of (seed, key, attempt)";
      // Exponential envelope with jitter in [delay/2, delay].
      std::uint64_t ceiling = opt.backoff_base_ms;
      for (std::uint32_t i = 0; i < attempt && ceiling < kBackoffCapMs; ++i) {
        ceiling *= 2;
      }
      if (ceiling > kBackoffCapMs) ceiling = kBackoffCapMs;
      EXPECT_GE(a, ceiling / 2);
      EXPECT_LE(a, ceiling);
    }
  }
}

TEST(Backoff, DecorrelatedAcrossKeys) {
  SupervisorOptions opt;
  opt.backoff_base_ms = 5000;  // capped to 2000 ms from the first retry
  // Same attempt, different keys: the jitter must not collapse to one
  // value (thundering herd).  With a 1000-wide window, 32 keys all equal
  // would be astronomically unlikely.
  bool any_different = false;
  const std::uint64_t first = backoff_delay_ms(opt, 0, 0);
  for (std::uint64_t key = 1; key < 32; ++key) {
    if (backoff_delay_ms(opt, key, 0) != first) any_different = true;
  }
  EXPECT_TRUE(any_different);
}

TEST(Backoff, CapSaturates) {
  EXPECT_EQ(kBackoffCapMs, 2000u);
  for (const std::uint64_t base : {100u, 1500u, 5000u, 1u << 30}) {
    SupervisorOptions opt;
    opt.backoff_base_ms = base;
    for (std::uint32_t attempt = 0; attempt < 40; ++attempt) {
      const std::uint64_t delay = backoff_delay_ms(opt, 1, attempt);
      EXPECT_LE(delay, kBackoffCapMs) << base << " " << attempt;
      // A base at or past the cap starts at the cap: jitter keeps at
      // least half of it.
      if (base >= kBackoffCapMs) {
        EXPECT_GE(delay, kBackoffCapMs / 2) << base << " " << attempt;
      }
    }
  }
}

SupervisorOptions fast_options(std::uint32_t attempts) {
  SupervisorOptions opt;
  opt.max_attempts = attempts;
  opt.backoff_base_ms = 0;  // no sleeping in tests
  return opt;
}

TEST(Supervisor, FirstTrySuccessIsOk) {
  const Supervisor sup(fast_options(3));
  int calls = 0;
  const GuardOutcome out =
      sup.run_guarded(1, [&](const AttemptContext&) { ++calls; });
  EXPECT_EQ(out.status, RigStatus::kOk);
  EXPECT_EQ(out.attempts, 1u);
  EXPECT_TRUE(out.failure_cause.empty());
  EXPECT_EQ(calls, 1);
}

TEST(Supervisor, RetrySuccessIsRecovered) {
  const Supervisor sup(fast_options(3));
  int calls = 0;
  const GuardOutcome out = sup.run_guarded(1, [&](const AttemptContext& ctx) {
    ++calls;
    if (ctx.attempt == 0) throw Error("transient");
  });
  EXPECT_EQ(out.status, RigStatus::kRecovered);
  EXPECT_EQ(out.attempts, 2u);
  EXPECT_EQ(out.failure_cause, "transient");
  EXPECT_EQ(calls, 2);
}

TEST(Supervisor, FinalAttemptRunsDegraded) {
  const Supervisor sup(fast_options(3));
  bool was_degraded = false;
  const GuardOutcome out = sup.run_guarded(1, [&](const AttemptContext& ctx) {
    if (ctx.attempt < 2) throw Error("still broken");
    was_degraded = ctx.degraded;
  });
  EXPECT_EQ(out.status, RigStatus::kDegraded);
  EXPECT_EQ(out.attempts, 3u);
  EXPECT_TRUE(was_degraded) << "final attempt must carry the degrade flag";
}

TEST(Supervisor, ExhaustedRetriesAreLost) {
  const Supervisor sup(fast_options(3));
  int calls = 0;
  const GuardOutcome out = sup.run_guarded(1, [&](const AttemptContext&) {
    ++calls;
    throw Error("hard failure " + std::to_string(calls));
  });
  EXPECT_EQ(out.status, RigStatus::kLost);
  EXPECT_EQ(out.attempts, 3u);
  EXPECT_EQ(out.failure_cause, "hard failure 3");
  EXPECT_EQ(calls, 3);
}

TEST(Supervisor, SingleAttemptNeverDegrades) {
  const Supervisor sup(fast_options(1));
  bool degraded = false;
  const GuardOutcome out = sup.run_guarded(1, [&](const AttemptContext& ctx) {
    degraded = ctx.degraded;
  });
  EXPECT_EQ(out.status, RigStatus::kOk);
  EXPECT_FALSE(degraded) << "1 attempt = no degrade ladder";
}

TEST(Supervisor, StatusNames) {
  EXPECT_STREQ(rig_status_name(RigStatus::kOk), "ok");
  EXPECT_STREQ(rig_status_name(RigStatus::kRecovered), "recovered");
  EXPECT_STREQ(rig_status_name(RigStatus::kDegraded), "degraded");
  EXPECT_STREQ(rig_status_name(RigStatus::kLost), "lost");
  EXPECT_STREQ(rig_status_name(RigStatus::kPending), "pending");
}

TEST(StallWatchdog, ThrowsWhenProgressFreezes) {
  offramps::sim::Scheduler sched;
  SupervisorOptions opt;
  opt.stall_timeout_s = 2.0;

  std::uint64_t progress = 0;
  // Progress advances for 3 sim-seconds, then wedges.
  for (int i = 1; i <= 6; ++i) {
    sched.schedule_at(offramps::sim::from_seconds(0.5 * i),
                      [&progress] { ++progress; });
  }
  StallWatchdog dog(
      sched, opt, [&progress] { return progress; }, [] { return true; },
      "test");
  EXPECT_THROW(sched.run_until(offramps::sim::from_seconds(600.0)),
               offramps::Error);
  // The stream made progress until t=3s; the 1 s checks see the stall
  // at 3s + stall_timeout, far before the 120 s first-data limit and
  // the 600 s horizon.
  const double t = offramps::sim::to_seconds(sched.now());
  EXPECT_GE(t, 4.9);
  EXPECT_LE(t, 6.1);
}

TEST(StallWatchdog, ThrowsWhenStreamNeverStarts) {
  offramps::sim::Scheduler sched;
  SupervisorOptions opt;
  opt.stall_timeout_s = 2.0;

  StallWatchdog dog(
      sched, opt, [] { return std::uint64_t{0}; }, [] { return true; },
      "test");
  EXPECT_THROW(sched.run_until(offramps::sim::from_seconds(600.0)),
               offramps::Error);
  // No progress ever: the stall timeout does not apply, the 120 s
  // first-data limit does, at the 1 s check that reaches it.
  const double t = offramps::sim::to_seconds(sched.now());
  EXPECT_GE(t, 119.9);
  EXPECT_LE(t, 121.1);
}

TEST(StallWatchdog, RetiresWhenInactive) {
  offramps::sim::Scheduler sched;
  SupervisorOptions opt;
  opt.stall_timeout_s = 1.0;

  bool active = true;
  sched.schedule_at(offramps::sim::from_seconds(0.6),
                    [&active] { active = false; });
  StallWatchdog dog(
      sched, opt, [] { return std::uint64_t{0}; },
      [&active] { return active; }, "test");
  // Once inactive the watchdog retires at its first check (t=1 s); no
  // throw at the 120 s first-data limit, and the scheduler drains
  // instead of running to the horizon.
  EXPECT_NO_THROW(sched.run_until(offramps::sim::from_seconds(600.0)));
  EXPECT_TRUE(sched.idle());
}

}  // namespace
