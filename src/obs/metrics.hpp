// Process-wide metrics registry: counters, gauges, fixed-bucket
// histograms.
//
// The paper evaluates OFFRAMPS as a logic analyzer and quantifies its
// overhead on live signals; this layer is the software analogue for the
// reproduction itself - per-subsystem telemetry (scheduler event rates,
// worker-pool balance, detector window timings) that the fleet tools can
// export without perturbing the thing they measure.
//
// Cost model.  Every site is compiled in; obs::enabled() is the layer's
// one switch:
//
//   * disabled - the everyday path.  Each site is one relaxed atomic
//                load and an untaken branch; bench_obs enforces < 2% on
//                the event loop;
//   * enabled  - obs::set_enabled(true).  Hot-path updates are
//                lock-free atomic ops on pre-registered handles: no
//                allocation, no registry lock.  Wall-clock latency
//                histograms on per-event paths time 1 call in
//                kLatencySampleEvery; counters and gauges count every
//                call.
//
// Handles returned by Registry are valid for the process lifetime, so
// call sites register once (function-local static or constructor) and
// update through the pointer afterwards.  Instrumentation never feeds
// back into simulation state: enabling metrics cannot change a single
// simulated byte, only record wall-clock facts about producing them.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace offramps::obs {

namespace detail {
extern std::atomic<bool> g_enabled;

/// Counter stripe count.  Eight cache-line-sized cells absorb the worker
/// pools this repo runs (typically <= hardware_concurrency workers per
/// pool); threads beyond eight share stripes round-robin, which costs
/// contention but never correctness.
inline constexpr std::size_t kCounterShards = 8;

/// Stable per-thread stripe index, assigned round-robin on a thread's
/// first metered update.
std::size_t shard_index();
}  // namespace detail

/// True when instrumentation sites should record.  One relaxed load -
/// this is the only cost the disabled path pays.
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Turns recording on/off process-wide.
void set_enabled(bool on);

/// Microseconds elapsed since `t0` (histogram convenience).
inline double us_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Monotonically increasing event count, striped across per-thread
/// cache-line-aligned cells so concurrent workers never contend on one
/// line.  add() is a relaxed fetch_add on the calling thread's stripe;
/// value() aggregates all stripes at read time.  Totals are exact - the
/// sum of relaxed per-stripe adds equals the sum of a single shared
/// atomic, only the write traffic is spread out.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    cells_[detail::shard_index()].v.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const Cell& c : cells_) total += c.v.load(std::memory_order_relaxed);
    return total;
  }
  void reset() {
    for (Cell& c : cells_) c.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<Cell, detail::kCounterShards> cells_;
};

/// Last-written value plus a running maximum (e.g. queue depth: the
/// current level and the high-water mark since the last reset).
class Gauge {
 public:
  void set(std::int64_t v) {
    v_.store(v, std::memory_order_relaxed);
    std::int64_t cur = max_.load(std::memory_order_relaxed);
    while (v > cur && !max_.compare_exchange_weak(
                          cur, v, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] std::int64_t value() const {
    return v_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t max() const {
    return max_.load(std::memory_order_relaxed);
  }
  void reset() {
    v_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> v_{0};
  std::atomic<std::int64_t> max_{0};
};

/// Fixed-bucket histogram.  Bucket upper bounds are set at registration
/// and never change; observe() is a binary search plus two atomic adds.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double x);

  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket counts; one more entry than bounds() (the overflow
  /// bucket).
  [[nodiscard]] std::vector<std::uint64_t> counts() const;
  void reset();

 private:
  std::vector<double> bounds_;               // ascending upper bounds
  std::vector<std::atomic<std::uint64_t>> buckets_;  // bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Default bucket ladder for latency histograms, in microseconds.
const std::vector<double>& latency_buckets_us();

/// Sampling interval for per-event wall-clock latency observations (the
/// scheduler's callbacks, the detector's windows): the first call and
/// every 64th after it pay the two steady_clock reads and the histogram
/// update.  Counters and gauges are never sampled - only the wall-clock
/// histograms, whose values are nondeterministic anyway.
inline constexpr std::uint32_t kLatencySampleEvery = 64;

/// Process-wide name -> instrument map.  Registration (the only locking
/// path) returns a stable reference; the same name always yields the
/// same instrument.  JSON export iterates names in sorted order, so the
/// document layout is deterministic for a given set of registrations.
class Registry {
 public:
  static Registry& instance();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// `bounds` applies on first registration only; later calls return the
  /// existing histogram unchanged.
  Histogram& histogram(const std::string& name, std::vector<double> bounds);

  /// {"counters": {...}, "gauges": {...}, "histograms": {...}} with keys
  /// sorted by name.  Valid JSON (svc::json can re-read it); values are
  /// snapshots, not atomic across the whole document.
  [[nodiscard]] std::string to_json() const;

  /// Zeroes every registered instrument (handles stay valid).  For
  /// benches and tests that want a clean slate per phase.
  void reset();

 private:
  Registry() = default;
  struct Impl;
  Impl& impl() const;
};

}  // namespace offramps::obs
