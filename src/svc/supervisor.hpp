// Fleet supervision: per-rig fault isolation, deadline watchdogs, and
// bounded retry with deterministic backoff.
//
// The Offramps paper positions the intermediary as the component that
// must keep working when the system around it misbehaves.  `svc::Fleet`
// inherits that obligation at farm scale: one rig that throws, stalls,
// or emits a corrupt capture must not take down the campaign, and the
// campaign must say *what happened* to that rig instead of aborting.
//
// The supervisor wraps each phase attempt and classifies the result:
//
//   ok         first attempt succeeded
//   recovered  a retry succeeded at full fidelity
//   degraded   the final, reduced-fidelity attempt succeeded (the
//              side-channel probes disabled, step counting alone - the
//              ChannelSet::counts_only() subset); with more than one
//              attempt, the final one always runs degraded
//   lost       every attempt failed; the rig is quarantined and the
//              campaign degrades gracefully around it
//   pending    not yet run (campaign checkpointed / stopped early)
//
// Retry pacing is exponential backoff with deterministic jitter, capped
// at kBackoffCapMs: the delay is a pure function of (kBackoffSeed, key,
// attempt), so two workers retrying different rigs never
// thundering-herd the same instant, and nothing wall-clock-dependent
// leaks into the fleet report - reports stay byte-identical at any
// worker count.
//
// The watchdog runs *on the rig's own simulation scheduler*: every
// kWatchdogPeriodS (1 s) of sim time it checks that the capture stream
// is still making progress while the firmware claims to be printing.  A
// wedged producer (chaos kStall, a real tap bug) therefore trips
// deterministically at the same sim tick on every run.  There is no
// wall-clock deadline: every trigger is a sim-time one.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>

#include "sim/scheduler.hpp"

namespace offramps::svc {

/// Supervision verdict for one rig (or one reference phase).
enum class RigStatus : std::uint8_t {
  kOk,
  kRecovered,
  kDegraded,
  kLost,
  kPending,
};

const char* rig_status_name(RigStatus s);

/// Backoff ceiling: base * 2^k saturates here before jitter.
inline constexpr std::uint64_t kBackoffCapMs = 2000;
/// Jitter seed: the delay is a pure function of (seed, key, attempt).
inline constexpr std::uint64_t kBackoffSeed = 0x0FF7A305;
/// Watchdog cadence, in *sim* time.
inline constexpr double kWatchdogPeriodS = 1.0;
/// Stream never started within this long (sim time) -> stalled.
/// Generous: homing and heat-up legitimately precede the first
/// transaction.
inline constexpr double kFirstDataTimeoutS = 120.0;

/// Supervision tuning: each field has a flag and a fleet-spec key.
struct SupervisorOptions {
  /// Attempts per phase before quarantine (1 = no retry).  With more
  /// than one, the final attempt runs on the count-channels subset alone
  /// (every side-channel probe disabled - ChannelSet::counts_only()),
  /// trading fidelity for a verdict: success there is kDegraded, not
  /// kRecovered.
  std::uint32_t max_attempts = 3;
  /// Backoff before retry k is roughly base * 2^k (+ jitter), capped at
  /// kBackoffCapMs.  0 disables sleeping entirely (tests, benches).
  std::uint64_t backoff_base_ms = 0;
  /// Stream started, then froze for this long (sim time) -> stalled.
  double stall_timeout_s = 10.0;
};

/// Deterministic backoff delay before retrying attempt `attempt` of the
/// phase identified by `key` (e.g. the rig index).  Exponential in the
/// attempt with multiplicative jitter in [delay/2, delay]; pure in
/// (options, key, attempt).
[[nodiscard]] std::uint64_t backoff_delay_ms(const SupervisorOptions& options,
                                             std::uint64_t key,
                                             std::uint32_t attempt);

/// Handed to each attempt so it can honor the degrade ladder.
struct AttemptContext {
  std::uint32_t attempt = 0;
  /// True on the final attempt of several: run with the step-count
  /// channel subset only (no side-channel probes).
  bool degraded = false;
};

/// What the retry loop concluded.
struct GuardOutcome {
  RigStatus status = RigStatus::kLost;
  std::uint32_t attempts = 0;
  /// Last failure message ("" for kOk; for kRecovered/kDegraded, the
  /// failure the retries recovered from).
  std::string failure_cause;
};

/// The retry/quarantine engine.  Thread-safe: run_guarded holds no
/// mutable state, so fleet workers supervise rigs concurrently.
class Supervisor {
 public:
  explicit Supervisor(SupervisorOptions options = {})
      : options_(options) {}

  [[nodiscard]] const SupervisorOptions& options() const { return options_; }

  /// Runs `attempt` up to max_attempts times.  The attempt signals
  /// failure by throwing (anything derived from std::exception);
  /// non-exception escapes are bugs and propagate.  Sleeps the
  /// deterministic backoff between tries when backoff_base_ms > 0.
  GuardOutcome run_guarded(
      std::uint64_t key,
      const std::function<void(const AttemptContext&)>& attempt) const;

 private:
  SupervisorOptions options_;
};

/// Sim-clocked no-progress watchdog (see file comment).  Construct it
/// before running the rig; it throws offramps::Error out of the event
/// loop when the stream wedges, which the supervisor catches as an
/// attempt failure.
class StallWatchdog {
 public:
  using ProgressFn = std::function<std::uint64_t()>;
  using ActiveFn = std::function<bool()>;

  /// `progress` must be monotone while the phase is healthy (e.g.
  /// transactions accepted by the detector); `active` gates the checks
  /// (e.g. "firmware still running") - once it reports false the
  /// watchdog retires and stops rescheduling itself.
  StallWatchdog(sim::Scheduler& sched, const SupervisorOptions& options,
                ProgressFn progress, ActiveFn active, std::string phase)
      : sched_(sched),
        options_(options),
        progress_(std::move(progress)),
        active_(std::move(active)),
        phase_(std::move(phase)),
        last_change_(sched.now()) {
    schedule();
  }

  StallWatchdog(const StallWatchdog&) = delete;
  StallWatchdog& operator=(const StallWatchdog&) = delete;

 private:
  void schedule() {
    sched_.schedule_in(sim::from_seconds(kWatchdogPeriodS),
                       [this] { check(); });
  }

  void check();

  sim::Scheduler& sched_;
  SupervisorOptions options_;
  ProgressFn progress_;
  ActiveFn active_;
  std::string phase_;
  sim::Tick last_change_;
  std::uint64_t last_progress_ = 0;
  bool seen_progress_ = false;
};

}  // namespace offramps::svc
