#include "svc/supervisor.hpp"

#include <chrono>
#include <cstdio>
#include <thread>

#include "obs/metrics.hpp"
#include "sim/error.hpp"
#include "sim/rng.hpp"

namespace offramps::svc {

const char* rig_status_name(RigStatus s) {
  switch (s) {
    case RigStatus::kOk: return "ok";
    case RigStatus::kRecovered: return "recovered";
    case RigStatus::kDegraded: return "degraded";
    case RigStatus::kLost: return "lost";
    case RigStatus::kPending: return "pending";
  }
  return "?";
}

std::uint64_t backoff_delay_ms(const SupervisorOptions& options,
                               std::uint64_t key, std::uint32_t attempt) {
  if (options.backoff_base_ms == 0) return 0;
  // base * 2^attempt, saturating at the cap before jitter so the jitter
  // range stays meaningful at the ceiling.
  std::uint64_t delay = options.backoff_base_ms;
  for (std::uint32_t i = 0; i < attempt && delay < kBackoffCapMs; ++i) {
    delay *= 2;
  }
  if (delay > kBackoffCapMs) delay = kBackoffCapMs;
  // Jitter in [delay/2, delay]: a pure function of (seed, key, attempt),
  // so the schedule is reproducible yet decorrelated across rigs.
  const std::uint64_t h =
      sim::mix64(kBackoffSeed ^ sim::mix64(key) ^
                 (std::uint64_t{attempt} << 32));
  const std::uint64_t half = delay / 2;
  return half + (half > 0 ? h % (half + 1) : 0);
}

GuardOutcome Supervisor::run_guarded(
    std::uint64_t key,
    const std::function<void(const AttemptContext&)>& attempt) const {
  const std::uint32_t max_attempts =
      options_.max_attempts == 0 ? 1 : options_.max_attempts;
  GuardOutcome out;
  std::string cause;
  for (std::uint32_t a = 0; a < max_attempts; ++a) {
    AttemptContext ctx;
    ctx.attempt = a;
    ctx.degraded = max_attempts > 1 && a + 1 == max_attempts;
    try {
      attempt(ctx);
      out.attempts = a + 1;
      out.status = a == 0 ? RigStatus::kOk
                          : (ctx.degraded ? RigStatus::kDegraded
                                          : RigStatus::kRecovered);
      out.failure_cause = a == 0 ? std::string{} : cause;
      if (out.status == RigStatus::kDegraded && obs::enabled()) {
        static obs::Counter& degraded =
            obs::Registry::instance().counter("svc.supervisor.degraded");
        degraded.add(1);
      }
      return out;
    } catch (const std::exception& e) {
      cause = e.what();
      if (obs::enabled()) {
        static obs::Counter& failures =
            obs::Registry::instance().counter("svc.supervisor.failures");
        failures.add(1);
      }
      if (a + 1 < max_attempts) {
        if (obs::enabled()) {
          static obs::Counter& retries =
              obs::Registry::instance().counter("svc.supervisor.retries");
          retries.add(1);
        }
        const std::uint64_t delay = backoff_delay_ms(options_, key, a);
        if (delay > 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(delay));
        }
      }
    }
  }
  out.status = RigStatus::kLost;
  out.attempts = max_attempts;
  out.failure_cause = cause;
  if (obs::enabled()) {
    static obs::Counter& quarantined =
        obs::Registry::instance().counter("svc.supervisor.quarantined");
    quarantined.add(1);
  }
  return out;
}

void StallWatchdog::check() {
  // Phase over (print finished / firmware killed): retire quietly so the
  // scheduler can drain.
  if (!active_()) return;

  const std::uint64_t p = progress_();
  if (p != last_progress_) {
    last_progress_ = p;
    last_change_ = sched_.now();
    seen_progress_ = seen_progress_ || p > 0;
  } else {
    const double idle_s = sim::to_seconds(sched_.now() - last_change_);
    const double limit_s =
        seen_progress_ ? options_.stall_timeout_s : kFirstDataTimeoutS;
    if (idle_s >= limit_s) {
      char buf[192];
      std::snprintf(buf, sizeof(buf),
                    "watchdog: %s in phase %s (no progress for %.1f sim-s "
                    "at t=%.1f s)",
                    seen_progress_ ? "capture stream stalled"
                                   : "capture stream never started",
                    phase_.c_str(), idle_s,
                    sim::to_seconds(sched_.now()));
      throw Error(buf);
    }
  }

  schedule();
}

}  // namespace offramps::svc
