// Discrete-event scheduler.
//
// Every component in the reproduction (firmware stepper engine, FPGA fabric
// modules, printer plant integrators) advances time by scheduling callbacks
// on a single shared `Scheduler`.  Events run in (time, insertion sequence)
// order so simultaneous events run in FIFO order, which makes runs fully
// deterministic for a fixed seed.
//
// Hot-path notes: the queue is a `std::vector` of 24-byte {time, seq,
// slot} keys sorted latest-first, so the next event is the last key and a
// pop is a decrement.  Most events of a real print fall due within ~13 ns
// of the edge that made them (level-shifter delays, fabric clock sync),
// so a new key is filed by scanning from the earliest end and moves only
// the few keys due before it.  Real prints keep at most ~24 events pending
// (`sim.scheduler.queue_depth`); deep queues (Trojan rigs reach ~400)
// still file most keys near that end.  The callbacks sit in a slot vector
// that filing never touches.  A callback is a small-buffer-optimized
// `SmallFn` that moves by memcpy, into a free slot when scheduled and out
// of it when run.  Freed slots are reused, so once the vectors have grown
// steady-state event traffic allocates nothing and moves each callback
// exactly twice.  Metrics, when enabled, are accumulated in plain
// members and flushed to the registry in batches so the per-event cost is
// an increment and a compare, not atomic RMWs and clock reads (see
// execute_instrumented).
//
// A component may also take a sequence number without filing a key
// (`reserve`): `sim::Wire` lands a STEP-pulse fall that nothing reads at
// such a reserved (time, seq) place, judged by `passed`, and files it
// with `schedule_reserved` only if it must become an event after all.
// Reserved places are not events: `pending()`, `idle()` and `executed()`
// leave them out.  A place the owner gives up (`unreserve`) is forgotten;
// `run_all` advances `now()` to the last place still reserved, where the
// run would have ended had each been an event.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/error.hpp"
#include "sim/small_fn.hpp"
#include "sim/time.hpp"

namespace offramps::sim {

/// Single-threaded discrete-event scheduler on the 1 ns tick grid.
class Scheduler {
 public:
  using Callback = SmallFn<void()>;

  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  ~Scheduler() {
    if (obs_batch_events_ != 0) flush_obs();
  }

  /// Current simulation time.  Inside a callback this is the event's time.
  [[nodiscard]] Tick now() const { return now_; }

  /// Schedules `cb` to run at absolute time `t`.  Scheduling in the past
  /// (t < now()) is an API misuse and throws.
  void schedule_at(Tick t, Callback cb) {
    if (t < now_) {
      throw Error("Scheduler::schedule_at: event scheduled in the past");
    }
    if (time_warp_) {
      t = std::max(now_, time_warp_(now_, t));
      ++warped_events_;
    }
    const std::uint32_t slot = store(std::move(cb));
    push(Key{t, next_seq_++, slot});
  }

  /// Timing-fault hook (`sim::FaultInjector`): maps each requested event
  /// time to a (possibly jittered) one.  Results earlier than now() are
  /// clamped.  Pass nullptr to restore exact timing.
  using TimeWarp = std::function<Tick(Tick now, Tick requested)>;
  void set_time_warp(TimeWarp warp) { time_warp_ = std::move(warp); }
  [[nodiscard]] bool time_warp_active() const {
    return static_cast<bool>(time_warp_);
  }
  /// Events scheduled while a time warp was installed.
  [[nodiscard]] std::uint64_t warped_events() const { return warped_events_; }

  /// Schedules `cb` to run `dt` ticks from now.
  void schedule_in(Tick dt, Callback cb) {
    schedule_at(now_ + dt, std::move(cb));
  }

  /// Takes the sequence number an event scheduled now for `t` would get,
  /// without filing one.  The caller owns the (t, seq) place: it acts
  /// there through passed(), files an event there with
  /// schedule_reserved(), or gives it up with unreserve().  No time warp
  /// applies to a reserved place.
  [[nodiscard]] std::uint64_t reserve(Tick t) {
    if (reserved_.size() >= forget_reserved_at_) forget_passed_places();
    reserved_.push_back(Key{t, next_seq_, 0});
    if (t > reserved_until_) reserved_until_ = t;
    return next_seq_++;
  }

  /// Gives up a place taken with reserve(): no event will run there.
  void unreserve(Tick t, std::uint64_t seq);

  /// Files `cb` at a (t, seq) place taken with reserve() that the drain
  /// has not passed yet: it runs exactly where an event scheduled at the
  /// reservation would have.
  void schedule_reserved(Tick t, std::uint64_t seq, Callback cb);

  /// True once the run has drained past (t, seq): an event there would
  /// already have run.  Inside a callback that is every place before the
  /// running event; after run_until(t) or a drained run_all(), every
  /// place up to now().
  [[nodiscard]] bool passed(Tick t, std::uint64_t seq) const {
    return t < now_ || (t == now_ && seq < drained_seq_);
  }

  /// Number of events currently pending.
  [[nodiscard]] std::size_t pending() const { return keys_.size(); }

  /// True when no events remain.
  [[nodiscard]] bool idle() const { return keys_.empty(); }

  /// Runs the single earliest pending event.  Returns false when idle.
  bool step() {
    if (keys_.empty()) {
      if (obs_batch_events_ != 0) flush_obs();
      return false;
    }
    run_next();
    return true;
  }

  /// Runs the earliest pending event if its time is <= `t`.  Returns
  /// false when idle or the next event lies beyond `t`.
  bool step_if_before(Tick t) {
    if (keys_.empty() || keys_.back().time > t) {
      if (obs_batch_events_ != 0) flush_obs();
      return false;
    }
    run_next();
    return true;
  }

  /// Runs all events with time <= `t`, then advances `now()` to exactly `t`.
  /// Returns the number of events executed.
  std::size_t run_until(Tick t) {
    std::size_t n = 0;
    while (!stop_requested_ && step_if_before(t)) ++n;
    if (!stop_requested_) drained_to(t);
    if (obs_batch_events_ != 0) flush_obs();
    return n;
  }

  /// Runs until the queue drains, a stop is requested, or `max_events`
  /// events have executed (a runaway-simulation backstop).  Returns the
  /// number of events executed.
  std::size_t run_all(std::size_t max_events = kDefaultEventLimit) {
    std::size_t n = 0;
    while (!keys_.empty() && !stop_requested_) {
      if (n >= max_events) {
        if (obs_batch_events_ != 0) flush_obs();
        throw Error("Scheduler::run_all: event limit exceeded (runaway?)");
      }
      step();
      ++n;
    }
    if (!stop_requested_) drained_to(std::max(now_, reserved_until_));
    if (obs_batch_events_ != 0) flush_obs();
    return n;
  }

  /// Asks the current run_* loop to return after the in-flight event.
  void request_stop() { stop_requested_ = true; }

  /// True once request_stop() was called.
  [[nodiscard]] bool stop_requested() const { return stop_requested_; }

  /// Total number of events executed over the scheduler's lifetime.
  [[nodiscard]] std::uint64_t executed() const { return executed_; }

  static constexpr std::size_t kDefaultEventLimit = 2'000'000'000;

 private:
  /// One pending event: its ordering key and the slot of its callback.
  struct Key {
    Tick time = 0;
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
  };
  static_assert(sizeof(Key) == 24, "keys are the hot-path payload");
  /// (time, seq) order: a is due after b.  seq is unique, so same-tick
  /// events drain FIFO and slot never decides.
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      return a.time != b.time ? a.time > b.time : a.seq > b.seq;
    }
  };

  /// Puts `cb` into a free slot and returns the slot.
  std::uint32_t store(Callback&& cb) {
    std::uint32_t slot = 0;
    if (free_slots_.empty()) {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.push_back(std::move(cb));
    } else {
      slot = free_slots_.back();
      free_slots_.pop_back();
      slots_[slot] = std::move(cb);
    }
    return slot;
  }

  /// Drops the reserved places the run has passed, and lets the list
  /// grow to twice what is left before the next sweep.
  void forget_passed_places();

  /// Every event due by `t` has run: moves now() up to `t` and marks each
  /// place at now() passed.
  void drained_to(Tick t) {
    if (t < now_) return;
    now_ = t;
    drained_seq_ = ~std::uint64_t{0};
  }

  /// Files a key in (time, seq) order, scanning from the earliest end,
  /// where near-future keys land: only the keys due before it move.
  void push(const Key& key) {
    keys_.push_back(key);
    std::size_t i = keys_.size() - 1;
    for (; i > 0 && Later{}(key, keys_[i - 1]); --i) keys_[i] = keys_[i - 1];
    keys_[i] = key;
  }

  /// Runs the earliest event.  Its key leaves the queue, and its callback
  /// leaves its slot (which is freed), before the callback runs, so the
  /// callback may schedule anything, at the current tick too, even while
  /// the slot vector grows.
  void run_next() {
    const Key key = keys_.back();
    keys_.pop_back();
    Callback cb = std::move(slots_[key.slot]);
    free_slots_.push_back(key.slot);
    now_ = key.time;
    drained_seq_ = key.seq;
    ++executed_;
    // One relaxed load + untaken branch on the everyday path (bench_obs
    // holds this under 2% of the event loop); the priced work lives in
    // the cold sibling below.
    if (obs::enabled()) {
      execute_instrumented(cb);
      return;
    }
    cb.invoke_unchecked();
  }

  /// Metered dispatch, only reachable while obs::set_enabled(true):
  /// process-wide event count, queue-depth gauge (high-water semantics:
  /// depth at dispatch, including the executing event), and a sampled
  /// wall-clock callback latency histogram (1 event in
  /// obs::kLatencySampleEvery).  Counts and depth accumulate in plain
  /// members and flush to the registry per batch, so the per-event cost
  /// is increments and compares rather than shared atomic RMWs.  Wall
  /// time never feeds back into simulated time, so enabling metrics
  /// cannot change a run.
  void execute_instrumented(Callback& cb) {
    if (obs_events_ == nullptr) {
      auto& reg = obs::Registry::instance();
      obs_events_ = &reg.counter("sim.scheduler.events");
      obs_depth_ = &reg.gauge("sim.scheduler.queue_depth");
      obs_latency_ =
          &reg.histogram("sim.scheduler.callback_us",
                         obs::latency_buckets_us());
    }
    ++obs_batch_events_;
    const auto depth = static_cast<std::int64_t>(keys_.size()) + 1;
    if (depth > obs_depth_high_) obs_depth_high_ = depth;
    if (--obs_sample_countdown_ == 0) {
      obs_sample_countdown_ = obs::kLatencySampleEvery;
      const auto t0 = std::chrono::steady_clock::now();
      cb.invoke_unchecked();
      obs_latency_->observe(obs::us_since(t0));
    } else {
      cb.invoke_unchecked();
    }
    if (obs_batch_events_ >= kObsFlushEvery) flush_obs();
  }

  /// Publishes the accumulated batch to the registry.  Call sites ensure
  /// obs_batch_events_ != 0, which implies the handles are bound.
  void flush_obs() {
    obs_events_->add(obs_batch_events_);
    obs_depth_->set(obs_depth_high_);
    obs_batch_events_ = 0;
    obs_depth_high_ = 0;
  }

  static constexpr std::uint64_t kObsFlushEvery = 1024;

  /// Pending keys sorted latest-first: the next event is keys_.back().
  std::vector<Key> keys_;
  /// Callbacks by slot; a free slot holds an empty Callback.
  std::vector<Callback> slots_;
  std::vector<std::uint32_t> free_slots_;
  Tick now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t warped_events_ = 0;
  bool stop_requested_ = false;
  TimeWarp time_warp_;
  obs::Counter* obs_events_ = nullptr;
  obs::Gauge* obs_depth_ = nullptr;
  obs::Histogram* obs_latency_ = nullptr;
  std::uint64_t obs_batch_events_ = 0;
  std::int64_t obs_depth_high_ = 0;
  std::uint32_t obs_sample_countdown_ = 1;
  /// Places at now() with a lower seq have passed (the running event's
  /// seq, or all of them once the run has drained to now()).
  std::uint64_t drained_seq_ = 0;
  /// Places taken with reserve() and not given up or filed; some may
  /// have passed since the last sweep.
  std::vector<Key> reserved_;
  std::size_t forget_reserved_at_ = 16;
  /// Latest tick in reserved_ (or of a place that has since passed).
  Tick reserved_until_ = 0;
};

}  // namespace offramps::sim
